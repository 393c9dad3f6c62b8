//! The simulated SGX machine: enclave lifecycle, measurement, and the
//! in-enclave memory interface.
//!
//! This is the reproduction's stand-in for OpenSGX (the QEMU-based SGX
//! emulator the paper builds on). Every executed SGX instruction leaf
//! charges [`crate::perf::SGX_INSTRUCTION_CYCLES`] through the machine's
//! [`CycleCounter`], so provisioning-time measurements come out under the
//! same cost model the paper uses.

use crate::epc::{Epc, EpcmEntry, PagePerms, PageType, ENGARDE_EPC_PAGES, PAGE_SIZE};
use crate::instr::{SgxInstr, SgxVersion};
use crate::perf::CycleCounter;
use crate::SgxError;
use engarde_crypto::hmac::hmac_sha256;
use engarde_crypto::rsa::RsaKeyPair;
use engarde_crypto::sha256::{Digest, Sha256};
use engarde_rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;

/// Identifier of a created enclave.
pub type EnclaveId = u64;

/// Bytes one `EEXTEND` leaf measures.
const EEXTEND_LEAF: usize = 256;

/// The enclave measurement computation — the exact hash chain the
/// machine applies during `ECREATE`/`EADD`/`EEXTEND`.
///
/// Exposed so a *remote* party (the client of EnGarde's protocol) can
/// predict the measurement of an enclave built from known content and
/// compare it against an attestation quote.
///
/// # Examples
///
/// ```
/// use engarde_sgx::machine::MeasurementLog;
/// use engarde_sgx::epc::PagePerms;
///
/// let mut log = MeasurementLog::new(0x10000, 0x1000);
/// log.eadd(0, PagePerms::RWX);
/// log.eextend_page(0, &[0u8; 4096]);
/// let digest = log.finalize();
/// assert_eq!(digest.as_bytes().len(), 32);
/// ```
#[derive(Clone, Debug)]
pub struct MeasurementLog {
    hasher: Sha256,
}

impl MeasurementLog {
    /// Starts the log with the `ECREATE` record.
    pub fn new(base: u64, size: u64) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"ECREATE");
        hasher.update(&base.to_le_bytes());
        hasher.update(&size.to_le_bytes());
        MeasurementLog { hasher }
    }

    /// Records an `EADD` of a page at enclave-relative `offset`.
    pub fn eadd(&mut self, offset: u64, perms: PagePerms) {
        self.hasher.update(b"EADD");
        self.hasher.update(&offset.to_le_bytes());
        self.hasher
            .update(&[perms.r as u8, perms.w as u8, perms.x as u8]);
    }

    /// Records the 16 `EEXTEND` leaves measuring a full page at
    /// enclave-relative `offset`: for each 256-byte chunk, the tag, the
    /// chunk's offset and the chunk. `data` shorter than a page is
    /// zero-extended, as `EADD` zero-fills pages. The records are laid
    /// out in one buffer and hashed with one update.
    pub fn eextend_page(&mut self, offset: u64, data: &[u8]) {
        const TAG: &[u8; 7] = b"EEXTEND";
        const RECORD: usize = TAG.len() + 8 + EEXTEND_LEAF;
        let mut records = [0u8; PAGE_SIZE / EEXTEND_LEAF * RECORD];
        let mut leaves = data.chunks(EEXTEND_LEAF);
        for (chunk, record) in records.chunks_exact_mut(RECORD).enumerate() {
            let (tag, rest) = record.split_at_mut(TAG.len());
            let (chunk_offset, leaf) = rest.split_at_mut(8);
            tag.copy_from_slice(TAG);
            chunk_offset.copy_from_slice(&(offset + (chunk * EEXTEND_LEAF) as u64).to_le_bytes());
            if let Some(bytes) = leaves.next() {
                leaf.iter_mut().zip(bytes).for_each(|(l, &b)| *l = b);
            }
        }
        self.hasher.update(&records);
    }

    /// Finalizes into the enclave measurement (`EINIT`).
    pub fn finalize(self) -> Digest {
        self.hasher.finalize()
    }
}

/// Machine construction parameters.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of EPC pages. The paper raises OpenSGX's 2,000 to 32,000.
    pub epc_pages: usize,
    /// Instruction set revision. EnGarde *requires* [`SgxVersion::V2`]
    /// for hardware-enforced page permissions; V1 demonstrates the attack
    /// the paper cites.
    pub version: SgxVersion,
    /// Modulus size of the simulated device (EPID-stand-in) key.
    pub device_key_bits: usize,
    /// Seed for the machine's internal randomness (keys, MEE tweak).
    pub seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            epc_pages: ENGARDE_EPC_PAGES,
            version: SgxVersion::V2,
            device_key_bits: 1024,
            seed: 0x5117_C0DE,
        }
    }
}

impl MachineConfig {
    /// The configuration for shard `index` of a sharded fleet: identical
    /// hardware, but a per-shard key/randomness seed derived from this
    /// config's seed. Derivation is a fixed 64-bit mix, so a fleet built
    /// from one base config is bit-reproducible.
    pub fn shard(&self, index: usize) -> MachineConfig {
        // SplitMix64 finalizer over (seed, index): cheap, well-mixed,
        // and stable across platforms.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        MachineConfig {
            seed: z ^ (z >> 31),
            ..*self
        }
    }
}

/// Lifecycle state of an enclave.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnclaveState {
    /// Created; pages may be added and measured.
    Building,
    /// Measurement finalized by EINIT; executable.
    Initialized,
}

/// A pending SGX2 permission change awaiting EACCEPT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PendingPerms {
    vaddr: u64,
    perms: PagePerms,
}

/// One enclave's bookkeeping inside the machine.
#[derive(Debug)]
pub struct Enclave {
    id: EnclaveId,
    base: u64,
    size: u64,
    state: EnclaveState,
    hasher: Option<MeasurementLog>,
    measurement: Option<Digest>,
    /// EPC index of the SECS page.
    secs: usize,
    pages: BTreeMap<u64, usize>,
    entered: u32,
    pending: Vec<PendingPerms>,
}

impl Enclave {
    /// The enclave's identifier.
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The enclave's base linear address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The enclave's size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current lifecycle state.
    pub fn state(&self) -> EnclaveState {
        self.state
    }

    /// The finalized measurement (after EINIT).
    pub fn measurement(&self) -> Option<Digest> {
        self.measurement
    }

    /// Number of pages currently mapped.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether a thread is currently executing inside the enclave.
    pub fn is_entered(&self) -> bool {
        self.entered > 0
    }

    /// Linear addresses of all mapped pages, in address order.
    pub fn mapped_pages(&self) -> Vec<u64> {
        self.pages.keys().copied().collect()
    }
}

/// The destination a local-attestation report is MACed for
/// (`TARGETINFO` in real SGX): only the named target can verify it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportTarget {
    /// The platform's quoting enclave (the EnGarde flow's destination).
    QuotingEnclave,
    /// Another enclave on the same machine, named by measurement.
    Enclave(Digest),
}

impl ReportTarget {
    fn key_label(&self) -> Vec<u8> {
        match self {
            ReportTarget::QuotingEnclave => b"report-target:QE".to_vec(),
            ReportTarget::Enclave(m) => {
                let mut v = b"report-target:".to_vec();
                v.extend_from_slice(m.as_bytes());
                v
            }
        }
    }
}

/// A local-attestation report (EREPORT output).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Report {
    /// The reporting enclave.
    pub enclave_id: EnclaveId,
    /// The enclave's measurement.
    pub measurement: Digest,
    /// Caller-supplied data bound into the report (e.g. a hash of the
    /// enclave's ephemeral public key, as EnGarde's protocol requires).
    pub report_data: [u8; 64],
    /// Who the report is MACed for.
    pub target: ReportTarget,
    /// MAC over all of the above, keyed with a target-specific report
    /// key — only the target can verify it.
    pub mac: [u8; 32],
}

/// The simulated SGX machine.
pub struct SgxMachine {
    config: MachineConfig,
    epc: Epc,
    enclaves: BTreeMap<EnclaveId, Enclave>,
    next_id: EnclaveId,
    device_key: RsaKeyPair,
    report_key: [u8; 32],
    seal_key: [u8; 32],
    counter: CycleCounter,
    /// Executed leaves per [`SgxInstr`], indexed in declaration order.
    instr_counts: [u64; SgxInstr::ALL.len()],
}

impl std::fmt::Debug for SgxMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SgxMachine(version={:?}, enclaves={}, {})",
            self.config.version,
            self.enclaves.len(),
            self.counter
        )
    }
}

impl Default for SgxMachine {
    fn default() -> Self {
        Self::new(MachineConfig::default())
    }
}

impl SgxMachine {
    /// Builds a machine: generates the device key, MEE key, and report
    /// key from the configured seed.
    pub fn new(config: MachineConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut mee_key = [0u8; 32];
        rng.fill(&mut mee_key);
        let mut report_key = [0u8; 32];
        rng.fill(&mut report_key);
        let mut seal_key = [0u8; 32];
        rng.fill(&mut seal_key);
        let device_key = RsaKeyPair::generate(&mut rng, config.device_key_bits);
        SgxMachine {
            epc: Epc::new(config.epc_pages, mee_key),
            config,
            enclaves: BTreeMap::new(),
            next_id: 1,
            device_key,
            report_key,
            seal_key,
            counter: CycleCounter::new(),
            instr_counts: [0; SgxInstr::ALL.len()],
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The instruction-set revision this machine implements.
    pub fn version(&self) -> SgxVersion {
        self.config.version
    }

    /// The performance counter.
    pub fn counter(&self) -> &CycleCounter {
        &self.counter
    }

    /// Mutable access to the performance counter (used by in-enclave
    /// components to charge native work).
    pub fn counter_mut(&mut self) -> &mut CycleCounter {
        &mut self.counter
    }

    /// The device key pair held by the quoting enclave (public half is
    /// what remote verifiers pin).
    pub fn device_key(&self) -> &RsaKeyPair {
        &self.device_key
    }

    /// How many times the machine has executed `instr`.
    pub fn instr_count(&self, instr: SgxInstr) -> u64 {
        self.instr_counts[instr as usize]
    }

    /// Immutable view of an enclave.
    pub fn enclave(&self, id: EnclaveId) -> Option<&Enclave> {
        self.enclaves.get(&id)
    }

    fn step(&mut self, instr: SgxInstr) {
        self.counter.charge_sgx(1);
        self.instr_counts[instr as usize] += 1;
    }

    fn enclave_mut(&mut self, id: EnclaveId) -> Result<&mut Enclave, SgxError> {
        self.enclaves
            .get_mut(&id)
            .ok_or(SgxError::NoSuchEnclave { id })
    }

    // ---- lifecycle -----------------------------------------------------

    /// `ECREATE`: creates an enclave spanning `[base, base + size)`.
    ///
    /// # Errors
    ///
    /// Fails with [`SgxError::BadParameter`] for an unaligned or empty
    /// range, or [`SgxError::Epc`] when the EPC cannot hold the SECS page.
    pub fn ecreate(&mut self, base: u64, size: u64) -> Result<EnclaveId, SgxError> {
        self.step(SgxInstr::Ecreate);
        if size == 0
            || !base.is_multiple_of(PAGE_SIZE as u64)
            || !size.is_multiple_of(PAGE_SIZE as u64)
        {
            return Err(SgxError::BadParameter {
                what: "enclave range must be non-empty and page-aligned",
            });
        }
        let id = self.next_id;
        // SECS page (not part of the enclave's linear range).
        let secs = self.epc.alloc(
            EpcmEntry {
                valid: true,
                page_type: PageType::Secs,
                enclave_id: id,
                vaddr: 0,
                perms: PagePerms::R,
                perms_locked: false,
            },
            &[],
        )?;
        self.next_id += 1;
        let hasher = MeasurementLog::new(base, size);
        self.enclaves.insert(
            id,
            Enclave {
                id,
                base,
                size,
                state: EnclaveState::Building,
                hasher: Some(hasher),
                measurement: None,
                secs,
                pages: BTreeMap::new(),
                entered: 0,
                pending: Vec::new(),
            },
        );
        Ok(id)
    }

    /// `EADD`: adds one page of `data` at `vaddr` with initial `perms`.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is initialized ([`SgxError::WrongState`] —
    /// SGX1 commits all memory at build time), the address is outside the
    /// enclave or already mapped, or the EPC is full.
    pub fn eadd(
        &mut self,
        id: EnclaveId,
        vaddr: u64,
        data: &[u8],
        perms: PagePerms,
    ) -> Result<(), SgxError> {
        self.step(SgxInstr::Eadd);
        if data.len() > PAGE_SIZE {
            return Err(SgxError::BadParameter {
                what: "EADD data exceeds one page",
            });
        }
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        if enclave.state != EnclaveState::Building {
            return Err(SgxError::WrongState {
                what: "EADD requires an uninitialized enclave",
            });
        }
        if !vaddr.is_multiple_of(PAGE_SIZE as u64)
            || vaddr < enclave.base
            || vaddr + PAGE_SIZE as u64 > enclave.base + enclave.size
        {
            return Err(SgxError::BadAddress { vaddr });
        }
        if enclave.pages.contains_key(&vaddr) {
            return Err(SgxError::BadParameter {
                what: "page already mapped",
            });
        }
        let idx = self.epc.alloc(
            EpcmEntry {
                valid: true,
                page_type: PageType::Reg,
                enclave_id: id,
                vaddr,
                perms,
                perms_locked: false,
            },
            data,
        )?;
        let base = enclave.base;
        let enclave = self.enclave_mut(id)?;
        enclave.pages.insert(vaddr, idx);
        if let Some(h) = enclave.hasher.as_mut() {
            h.eadd(vaddr - base, perms);
        }
        Ok(())
    }

    /// `EEXTEND`: measures the page at `vaddr` into the enclave's
    /// measurement. Real hardware measures 256 bytes per leaf; this
    /// simulates one leaf per 256-byte chunk (16 per page), charging each.
    ///
    /// # Errors
    ///
    /// Fails if the enclave is not building or the page is unmapped.
    pub fn eextend(&mut self, id: EnclaveId, vaddr: u64) -> Result<(), SgxError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        if enclave.state != EnclaveState::Building {
            return Err(SgxError::WrongState {
                what: "EEXTEND requires an uninitialized enclave",
            });
        }
        let &idx = enclave
            .pages
            .get(&vaddr)
            .ok_or(SgxError::BadAddress { vaddr })?;
        let data = self.epc.read_plaintext(idx)?;
        let base = enclave.base;
        for _ in 0..PAGE_SIZE / EEXTEND_LEAF {
            self.step(SgxInstr::Eextend);
        }
        let enclave = self.enclave_mut(id)?;
        if let Some(h) = enclave.hasher.as_mut() {
            h.eextend_page(vaddr - base, &data);
        }
        Ok(())
    }

    /// `EINIT`: finalizes the measurement; the enclave becomes
    /// executable and immutable (no further EADD on SGX1).
    ///
    /// # Errors
    ///
    /// Fails if already initialized.
    pub fn einit(&mut self, id: EnclaveId) -> Result<Digest, SgxError> {
        self.step(SgxInstr::Einit);
        let enclave = self.enclave_mut(id)?;
        if enclave.state != EnclaveState::Building {
            return Err(SgxError::WrongState {
                what: "EINIT requires an uninitialized enclave",
            });
        }
        let digest = enclave
            .hasher
            .take()
            .ok_or(SgxError::WrongState {
                what: "EINIT requires a live measurement log",
            })?
            .finalize();
        enclave.measurement = Some(digest);
        enclave.state = EnclaveState::Initialized;
        Ok(digest)
    }

    /// `EENTER`: enters the enclave.
    ///
    /// # Errors
    ///
    /// Fails unless the enclave is initialized.
    pub fn eenter(&mut self, id: EnclaveId) -> Result<(), SgxError> {
        self.step(SgxInstr::Eenter);
        let enclave = self.enclave_mut(id)?;
        if enclave.state != EnclaveState::Initialized {
            return Err(SgxError::WrongState {
                what: "EENTER requires an initialized enclave",
            });
        }
        enclave.entered += 1;
        Ok(())
    }

    /// `EEXIT`: leaves the enclave.
    ///
    /// # Errors
    ///
    /// Fails if no thread is inside.
    pub fn eexit(&mut self, id: EnclaveId) -> Result<(), SgxError> {
        self.step(SgxInstr::Eexit);
        let enclave = self.enclave_mut(id)?;
        if enclave.entered == 0 {
            return Err(SgxError::WrongState {
                what: "EEXIT with no thread inside the enclave",
            });
        }
        enclave.entered -= 1;
        Ok(())
    }

    /// An out-call trampoline: the enclave exits, the untrusted runtime
    /// performs a service (e.g. `malloc`), and the enclave re-enters.
    /// Costs one EEXIT plus one EENTER (2 × 10K cycles) — the overhead
    /// the paper's loader amortises by allocating a page at a time.
    ///
    /// # Errors
    ///
    /// Propagates the EEXIT/EENTER state checks.
    pub fn out_call(&mut self, id: EnclaveId) -> Result<(), SgxError> {
        self.eexit(id)?;
        self.eenter(id)
    }

    /// `EREMOVE`: unmaps and scrubs the page at `vaddr`.
    ///
    /// # Errors
    ///
    /// Fails for unmapped addresses.
    pub fn eremove(&mut self, id: EnclaveId, vaddr: u64) -> Result<(), SgxError> {
        self.step(SgxInstr::Eremove);
        let enclave = self.enclave_mut(id)?;
        let idx = enclave
            .pages
            .remove(&vaddr)
            .ok_or(SgxError::BadAddress { vaddr })?;
        self.epc.free(idx)?;
        Ok(())
    }

    /// Forced enclave teardown: scrubs and frees every EPC page the
    /// enclave owns (its mapped pages, then the SECS) and forgets the
    /// enclave. This is the host's recycling path — a provisioning
    /// service destroys evicted or completed enclaves to reuse their EPC
    /// pages for new tenants.
    ///
    /// Charges one `EREMOVE` per freed page, matching what a loop over
    /// [`SgxMachine::eremove`] plus the SECS drop would cost.
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves.
    pub fn destroy_enclave(&mut self, id: EnclaveId) -> Result<usize, SgxError> {
        let enclave = self
            .enclaves
            .remove(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let mut freed = 0;
        for idx in enclave.pages.into_values().chain([enclave.secs]) {
            if self.epc.free(idx).is_ok() {
                self.step(SgxInstr::Eremove);
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// `EAUG` (SGX2, OS-invoked): adds a zeroed page to an *initialized*
    /// enclave — the dynamic memory management the paper notes SGX1
    /// lacks ("SGX hardware currently requires all enclave memory to be
    /// committed at enclave build time"). The enclave must EACCEPT the
    /// page before using it.
    ///
    /// # Errors
    ///
    /// [`SgxError::NotSupported`] on SGX1; the usual address checks
    /// otherwise.
    pub fn eaug(&mut self, id: EnclaveId, vaddr: u64) -> Result<(), SgxError> {
        self.step(SgxInstr::Eaug);
        if self.config.version < SgxVersion::V2 {
            return Err(SgxError::NotSupported {
                what: "EAUG requires SGX2",
            });
        }
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        if enclave.state != EnclaveState::Initialized {
            return Err(SgxError::WrongState {
                what: "EAUG targets initialized enclaves (use EADD while building)",
            });
        }
        if !vaddr.is_multiple_of(PAGE_SIZE as u64)
            || vaddr < enclave.base
            || vaddr + PAGE_SIZE as u64 > enclave.base + enclave.size
        {
            return Err(SgxError::BadAddress { vaddr });
        }
        if enclave.pages.contains_key(&vaddr) {
            return Err(SgxError::BadParameter {
                what: "page already mapped",
            });
        }
        let idx = self.epc.alloc(
            EpcmEntry {
                valid: true,
                page_type: PageType::Reg,
                enclave_id: id,
                vaddr,
                perms: PagePerms::RW,
                perms_locked: false,
            },
            &[],
        )?;
        let enclave = self.enclave_mut(id)?;
        enclave.pages.insert(vaddr, idx);
        // Pending until the enclave EACCEPTs (same flow as EMODPR).
        enclave.pending.push(PendingPerms {
            vaddr,
            perms: PagePerms::RW,
        });
        Ok(())
    }

    // ---- SGX2 permission management ------------------------------------

    /// `EMODPR` (SGX2, OS-invoked): restricts the EPCM permissions of the
    /// page at `vaddr` to `perms ∩ current`, so it never widens them.
    /// Takes effect once the enclave runs [`SgxMachine::eaccept`]; a
    /// later EMODPR of a page with a change still pending (its own or
    /// EAUG's) narrows that change, so successive restrictions
    /// intersect and one EACCEPT confirms them all.
    ///
    /// # Errors
    ///
    /// [`SgxError::NotSupported`] on SGX1 machines — this is exactly the
    /// gap the paper identifies: "EnGarde requires the features of SGX
    /// version 2 for security".
    pub fn emodpr(&mut self, id: EnclaveId, vaddr: u64, perms: PagePerms) -> Result<(), SgxError> {
        self.step(SgxInstr::Emodpr);
        if self.config.version < SgxVersion::V2 {
            return Err(SgxError::NotSupported {
                what: "EMODPR requires SGX2",
            });
        }
        let enclave = self
            .enclaves
            .get_mut(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let current = enclave
            .pages
            .get(&vaddr)
            .and_then(|&idx| self.epc.epcm(idx))
            .ok_or(SgxError::BadAddress { vaddr })?
            .perms;
        let perms = perms.intersect(current);
        match enclave.pending.iter_mut().find(|p| p.vaddr == vaddr) {
            Some(pending) => pending.perms = pending.perms.intersect(perms),
            None => enclave.pending.push(PendingPerms { vaddr, perms }),
        }
        Ok(())
    }

    /// `EACCEPT` (SGX2, enclave-invoked): applies the pending permission
    /// change for `vaddr` to the EPCM.
    ///
    /// # Errors
    ///
    /// [`SgxError::NotSupported`] on SGX1; [`SgxError::BadAddress`] when
    /// nothing is pending for the page.
    pub fn eaccept(&mut self, id: EnclaveId, vaddr: u64) -> Result<(), SgxError> {
        self.step(SgxInstr::Eaccept);
        if self.config.version < SgxVersion::V2 {
            return Err(SgxError::NotSupported {
                what: "EACCEPT requires SGX2",
            });
        }
        let enclave = self.enclave_mut(id)?;
        let pos = enclave
            .pending
            .iter()
            .position(|p| p.vaddr == vaddr)
            .ok_or(SgxError::BadAddress { vaddr })?;
        let pending = enclave.pending.remove(pos);
        let &idx = enclave
            .pages
            .get(&vaddr)
            .ok_or(SgxError::BadAddress { vaddr })?;
        let entry = self
            .epc
            .epcm_mut(idx)
            .ok_or(SgxError::BadAddress { vaddr })?;
        entry.perms = pending.perms;
        entry.perms_locked = true;
        Ok(())
    }

    /// The hardware (EPCM) permissions of the page at `vaddr`.
    ///
    /// On SGX1 the EPCM records permissions but the hardware does not let
    /// them be changed after EADD, and enforcement against a malicious
    /// host rests entirely on page tables — see `crate::host`.
    pub fn epcm_perms(&self, id: EnclaveId, vaddr: u64) -> Option<PagePerms> {
        let enclave = self.enclaves.get(&id)?;
        let &idx = enclave.pages.get(&vaddr)?;
        self.epc.epcm(idx).map(|e| e.perms)
    }

    // ---- memory ---------------------------------------------------------

    /// Reads `len` bytes at enclave-linear `vaddr` — the in-enclave
    /// (plaintext) view. May span pages.
    ///
    /// # Errors
    ///
    /// [`SgxError::BadAddress`] for unmapped ranges.
    pub fn enclave_read(&self, id: EnclaveId, vaddr: u64, len: usize) -> Result<Vec<u8>, SgxError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let mut out = vec![0u8; len];
        let mut addr = vaddr;
        let mut done = 0;
        while done < len {
            let page_base = addr & !(PAGE_SIZE as u64 - 1);
            let &idx = enclave
                .pages
                .get(&page_base)
                .ok_or(SgxError::BadAddress { vaddr: addr })?;
            let off = (addr - page_base) as usize;
            let take = (len - done).min(PAGE_SIZE - off);
            self.epc
                .read_plaintext_at(idx, off, &mut out[done..done + take])?;
            addr += take as u64;
            done += take;
        }
        Ok(out)
    }

    /// Writes `data` at enclave-linear `vaddr` (in-enclave write). May
    /// span pages; requires EPCM write permission on every touched page.
    ///
    /// # Errors
    ///
    /// [`SgxError::BadAddress`] for unmapped ranges,
    /// [`SgxError::PermissionDenied`] when a page is not writable.
    pub fn enclave_write(
        &mut self,
        id: EnclaveId,
        vaddr: u64,
        data: &[u8],
    ) -> Result<(), SgxError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        // Plan the page splits first so the write is all-or-nothing.
        let mut plan = Vec::new();
        let mut addr = vaddr;
        let mut offset = 0usize;
        while offset < data.len() {
            let page_base = addr & !(PAGE_SIZE as u64 - 1);
            let &idx = enclave
                .pages
                .get(&page_base)
                .ok_or(SgxError::BadAddress { vaddr: addr })?;
            let entry = self
                .epc
                .epcm(idx)
                .ok_or(SgxError::BadAddress { vaddr: addr })?;
            if !entry.perms.w {
                return Err(SgxError::PermissionDenied { vaddr: page_base });
            }
            let off = (addr - page_base) as usize;
            let take = (data.len() - offset).min(PAGE_SIZE - off);
            plan.push((idx, off, offset, take));
            addr += take as u64;
            offset += take;
        }
        for (idx, off, data_off, take) in plan {
            self.epc
                .write_plaintext(idx, off, &data[data_off..data_off + take])?;
        }
        Ok(())
    }

    /// The adversary's view of the page backing `vaddr`: raw EPC
    /// ciphertext, as seen from the memory bus or a malicious OS.
    ///
    /// # Errors
    ///
    /// [`SgxError::BadAddress`] for unmapped pages.
    pub fn adversary_read_page(&self, id: EnclaveId, vaddr: u64) -> Result<Vec<u8>, SgxError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let page_base = vaddr & !(PAGE_SIZE as u64 - 1);
        let &idx = enclave
            .pages
            .get(&page_base)
            .ok_or(SgxError::BadAddress { vaddr })?;
        Ok(self.epc.read_ciphertext(idx)?.to_vec())
    }

    // ---- attestation ------------------------------------------------------

    fn report_mac(&self, report_body: &[u8], target: &ReportTarget) -> [u8; 32] {
        // Per-target report key, derived the way real SGX derives it
        // through EGETKEY(REPORT_KEY) for the TARGETINFO enclave.
        let target_key = hmac_sha256(&self.report_key, &target.key_label());
        *hmac_sha256(target_key.as_bytes(), report_body).as_bytes()
    }

    fn report_body(id: EnclaveId, measurement: &Digest, report_data: &[u8; 64]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(8 + 32 + 64);
        msg.extend_from_slice(&id.to_le_bytes());
        msg.extend_from_slice(measurement.as_bytes());
        msg.extend_from_slice(report_data);
        msg
    }

    /// `EREPORT` toward the quoting enclave — the EnGarde/remote
    /// attestation flow.
    ///
    /// # Errors
    ///
    /// Fails unless the enclave is initialized (measurement exists).
    pub fn ereport(&mut self, id: EnclaveId, report_data: [u8; 64]) -> Result<Report, SgxError> {
        self.ereport_to(id, ReportTarget::QuotingEnclave, report_data)
    }

    /// `EREPORT` with explicit `TARGETINFO`: the report is MACed with a
    /// key only the named target can derive, so enclaves on the same
    /// machine can attest each other locally.
    ///
    /// # Errors
    ///
    /// Fails unless the enclave is initialized (measurement exists).
    pub fn ereport_to(
        &mut self,
        id: EnclaveId,
        target: ReportTarget,
        report_data: [u8; 64],
    ) -> Result<Report, SgxError> {
        self.step(SgxInstr::Ereport);
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let measurement = enclave.measurement.ok_or(SgxError::WrongState {
            what: "EREPORT requires an initialized enclave",
        })?;
        let body = Self::report_body(id, &measurement, &report_data);
        let mac = self.report_mac(&body, &target);
        Ok(Report {
            enclave_id: id,
            measurement,
            report_data,
            target,
            mac,
        })
    }

    /// Verifies a report addressed to the quoting enclave — what the
    /// quoting enclave does before signing a quote.
    pub fn verify_report(&self, report: &Report) -> bool {
        self.verify_report_as(report, &ReportTarget::QuotingEnclave)
    }

    /// Verifies a report as a specific target: succeeds only on the same
    /// machine *and* when `as_target` matches the report's TARGETINFO
    /// (the target-specific key is underivable otherwise).
    pub fn verify_report_as(&self, report: &Report, as_target: &ReportTarget) -> bool {
        if &report.target != as_target {
            return false;
        }
        let body = Self::report_body(report.enclave_id, &report.measurement, &report.report_data);
        let expected = self.report_mac(&body, as_target);
        engarde_crypto::hmac::constant_time_eq(&expected, &report.mac)
    }

    /// `EGETKEY`: derives an enclave- and label-specific sealing key.
    ///
    /// # Errors
    ///
    /// Fails unless the enclave is initialized.
    pub fn egetkey(&mut self, id: EnclaveId, label: &[u8]) -> Result<[u8; 32], SgxError> {
        self.step(SgxInstr::Egetkey);
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(SgxError::NoSuchEnclave { id })?;
        let measurement = enclave.measurement.ok_or(SgxError::WrongState {
            what: "EGETKEY requires an initialized enclave",
        })?;
        Ok(self.derive_measurement_key(&measurement, label))
    }

    /// The key `EGETKEY` would hand an initialized enclave with this
    /// `measurement`: `HMAC(machine seal key, measurement ‖ label)`.
    ///
    /// This is the MRENCLAVE-policy sealing identity — it lets the
    /// untrusted runtime pre-derive the key a *future* instance of a
    /// known build will obtain (e.g. to open a sealed verdict store
    /// before the inspector enclave is re-launched), without requiring
    /// a live enclave. It grants nothing an attacker lacks: deriving
    /// the key still requires this machine's fused seal key, and a
    /// different build (different measurement) derives a different key.
    pub fn egetkey_for_measurement(&mut self, measurement: &Digest, label: &[u8]) -> [u8; 32] {
        self.step(SgxInstr::Egetkey);
        self.derive_measurement_key(measurement, label)
    }

    fn derive_measurement_key(&self, measurement: &Digest, label: &[u8]) -> [u8; 32] {
        let mut msg = Vec::new();
        msg.extend_from_slice(measurement.as_bytes());
        msg.extend_from_slice(label);
        *hmac_sha256(&self.seal_key, &msg).as_bytes()
    }

    /// Number of EPC pages currently in use (all enclaves).
    pub fn epc_used_pages(&self) -> usize {
        self.epc.used_pages()
    }

    /// Number of in-use EPC pages that hold encrypted contents; the
    /// others hold only zeros and have no backing. Not part of the
    /// machine's interface: it exists so `tests/enclave_build.rs` can pin
    /// that a fresh enclave backs only its non-zero pages.
    #[doc(hidden)]
    pub fn epc_backed_pages(&self) -> usize {
        self.epc.backed_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::SGX_INSTRUCTION_CYCLES;

    fn small_machine() -> SgxMachine {
        SgxMachine::new(MachineConfig {
            epc_pages: 64,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 1,
        })
    }

    fn build_enclave(m: &mut SgxMachine, pages: usize) -> EnclaveId {
        let id = m
            .ecreate(0x10000, (pages * PAGE_SIZE) as u64)
            .expect("ecreate");
        for i in 0..pages {
            let vaddr = 0x10000 + (i * PAGE_SIZE) as u64;
            let data = vec![i as u8; PAGE_SIZE];
            m.eadd(id, vaddr, &data, PagePerms::RWX).expect("eadd");
            m.eextend(id, vaddr).expect("eextend");
        }
        m.einit(id).expect("einit");
        id
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 2);
        let e = m.enclave(id).expect("enclave");
        assert_eq!(e.state(), EnclaveState::Initialized);
        assert!(e.measurement().is_some());
        assert_eq!(e.page_count(), 2);
        m.eenter(id).expect("enter");
        assert!(m.enclave(id).expect("enclave").is_entered());
        m.eexit(id).expect("exit");
        assert!(!m.enclave(id).expect("enclave").is_entered());
    }

    #[test]
    fn measurement_is_deterministic_and_content_sensitive() {
        let build = |tweak: u8| {
            let mut m = small_machine();
            let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
            m.eadd(id, 0x10000, &[tweak; 64], PagePerms::RWX)
                .expect("eadd");
            m.eextend(id, 0x10000).expect("eextend");
            m.einit(id).expect("einit")
        };
        assert_eq!(build(1), build(1), "same content, same measurement");
        assert_ne!(
            build(1),
            build(2),
            "different content, different measurement"
        );
    }

    #[test]
    fn eadd_after_einit_rejected() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, (4 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("eadd");
        m.einit(id).expect("einit");
        let err = m.eadd(id, 0x11000, &[], PagePerms::RWX).unwrap_err();
        assert!(matches!(err, SgxError::WrongState { .. }));
    }

    #[test]
    fn eadd_out_of_range_rejected() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        assert!(matches!(
            m.eadd(id, 0x20000, &[], PagePerms::RWX),
            Err(SgxError::BadAddress { .. })
        ));
        assert!(matches!(
            m.eadd(id, 0x10010, &[], PagePerms::RWX),
            Err(SgxError::BadAddress { .. })
        ));
    }

    #[test]
    fn double_map_rejected() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, (2 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("first");
        assert!(m.eadd(id, 0x10000, &[], PagePerms::RWX).is_err());
    }

    #[test]
    fn enclave_read_write_across_pages() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 2);
        let span_start = 0x10000 + PAGE_SIZE as u64 - 8;
        m.enclave_write(id, span_start, &[0xee; 16]).expect("write");
        let back = m.enclave_read(id, span_start, 16).expect("read");
        assert_eq!(back, vec![0xee; 16]);
    }

    #[test]
    fn write_to_readonly_page_rejected() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RX).expect("eadd");
        m.einit(id).expect("einit");
        assert!(matches!(
            m.enclave_write(id, 0x10000, &[1]),
            Err(SgxError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn adversary_sees_ciphertext() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        let secret = vec![0x42u8; 64];
        m.enclave_write(id, 0x10000, &secret).expect("write");
        let plain = m.enclave_read(id, 0x10000, 64).expect("read");
        assert_eq!(plain, secret);
        let cipher = m.adversary_read_page(id, 0x10000).expect("adversary read");
        assert_ne!(&cipher[..64], &secret[..]);
    }

    #[test]
    fn sgx1_rejects_permission_changes() {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 16,
            version: SgxVersion::V1,
            device_key_bits: 512,
            seed: 2,
        });
        let id = build_enclave(&mut m, 1);
        assert!(matches!(
            m.emodpr(id, 0x10000, PagePerms::RX),
            Err(SgxError::NotSupported { .. })
        ));
        assert!(matches!(
            m.eaccept(id, 0x10000),
            Err(SgxError::NotSupported { .. })
        ));
    }

    #[test]
    fn sgx2_permission_restriction_flow() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        assert_eq!(m.epcm_perms(id, 0x10000), Some(PagePerms::RWX));
        m.emodpr(id, 0x10000, PagePerms::RX).expect("emodpr");
        // Not applied until EACCEPT.
        assert_eq!(m.epcm_perms(id, 0x10000), Some(PagePerms::RWX));
        m.eaccept(id, 0x10000).expect("eaccept");
        assert_eq!(m.epcm_perms(id, 0x10000), Some(PagePerms::RX));
        // Writes now fault at the hardware level.
        assert!(matches!(
            m.enclave_write(id, 0x10000, &[1]),
            Err(SgxError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn emodpr_never_widens_and_pending_changes_intersect() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        m.emodpr(id, 0x10000, PagePerms::RX).expect("emodpr");
        m.eaccept(id, 0x10000).expect("eaccept");
        // Asking for RWX on an RX page leaves it RX.
        m.emodpr(id, 0x10000, PagePerms::RWX).expect("emodpr");
        m.eaccept(id, 0x10000).expect("eaccept");
        assert_eq!(m.epcm_perms(id, 0x10000), Some(PagePerms::RX));
        // Two changes before one EACCEPT: the later one only narrows
        // the earlier, in either order, and nothing is left pending.
        for (first, second) in [
            (PagePerms::RWX, PagePerms::R),
            (PagePerms::R, PagePerms::RX),
        ] {
            let id = build_enclave(&mut m, 1);
            m.emodpr(id, 0x10000, first).expect("emodpr");
            m.emodpr(id, 0x10000, second).expect("emodpr");
            m.eaccept(id, 0x10000).expect("eaccept");
            assert_eq!(m.epcm_perms(id, 0x10000), Some(PagePerms::R));
            assert!(matches!(
                m.eaccept(id, 0x10000),
                Err(SgxError::BadAddress { .. })
            ));
        }
        // EAUG's pending RW narrows the same way.
        let id = m.ecreate(0x20000, (2 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x20000, &[], PagePerms::RWX).expect("eadd");
        m.einit(id).expect("einit");
        m.eaug(id, 0x21000).expect("eaug");
        m.emodpr(id, 0x21000, PagePerms::R).expect("emodpr");
        m.eaccept(id, 0x21000).expect("eaccept");
        assert_eq!(m.epcm_perms(id, 0x21000), Some(PagePerms::R));
    }

    #[test]
    fn eaccept_without_pending_fails() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        assert!(matches!(
            m.eaccept(id, 0x10000),
            Err(SgxError::BadAddress { .. })
        ));
    }

    #[test]
    fn ereport_binds_data_and_verifies() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        let mut data = [0u8; 64];
        data[..4].copy_from_slice(b"key!");
        let report = m.ereport(id, data).expect("report");
        assert!(m.verify_report(&report));
        let mut forged = report.clone();
        forged.report_data[0] ^= 1;
        assert!(!m.verify_report(&forged));
    }

    #[test]
    fn ereport_before_einit_fails() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        assert!(matches!(
            m.ereport(id, [0; 64]),
            Err(SgxError::WrongState { .. })
        ));
    }

    #[test]
    fn egetkey_is_measurement_specific() {
        let mut m = small_machine();
        let a = build_enclave(&mut m, 1);
        let id_b = m.ecreate(0x40000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id_b, 0x40000, &[9; 32], PagePerms::RWX)
            .expect("eadd");
        m.eextend(id_b, 0x40000).expect("eextend");
        m.einit(id_b).expect("einit");
        let ka = m.egetkey(a, b"seal").expect("key a");
        let kb = m.egetkey(id_b, b"seal").expect("key b");
        assert_ne!(ka, kb, "keys are bound to measurements");
        assert_ne!(
            m.egetkey(a, b"seal").expect("key"),
            m.egetkey(a, b"other").expect("key"),
            "keys are bound to labels"
        );
        assert_eq!(
            ka,
            m.egetkey(a, b"seal").expect("key"),
            "derivation is stable"
        );
    }

    #[test]
    fn egetkey_for_measurement_matches_live_enclave() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        let measurement = m.ereport(id, [0; 64]).expect("report").measurement;
        let live = m.egetkey(id, b"store-seal").expect("key");
        // Pre-deriving from the measurement alone yields the exact key
        // the initialized enclave obtains from EGETKEY.
        assert_eq!(live, m.egetkey_for_measurement(&measurement, b"store-seal"));
        // A different measurement (a different inspector build) derives
        // a different key — sealed records cannot be replayed across
        // builds.
        let other = Digest([0xAB; 32]);
        assert_ne!(live, m.egetkey_for_measurement(&other, b"store-seal"));
        // And a different machine (different fused seal key) derives a
        // different key even for the same measurement.
        let mut m2 = SgxMachine::new(MachineConfig {
            epc_pages: 64,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 12345,
        });
        assert_ne!(
            m.egetkey_for_measurement(&measurement, b"store-seal"),
            m2.egetkey_for_measurement(&measurement, b"store-seal")
        );
    }

    #[test]
    fn cycle_accounting_per_instruction() {
        let mut m = small_machine();
        let before = *m.counter();
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("eadd");
        m.eextend(id, 0x10000).expect("eextend"); // 16 × 256-byte leaves
        m.einit(id).expect("einit");
        let delta = m.counter().since(&before);
        // ECREATE + EADD + 16×EEXTEND + EINIT = 19 SGX instructions.
        assert_eq!(delta, 19 * SGX_INSTRUCTION_CYCLES);
        let executed: u64 = SgxInstr::ALL.iter().map(|&i| m.instr_count(i)).sum();
        assert_eq!(executed, 19);
        assert_eq!(m.instr_count(SgxInstr::Eextend), 16);
    }

    #[test]
    fn out_call_costs_two_sgx_instructions() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 1);
        m.eenter(id).expect("enter");
        let before = *m.counter();
        m.out_call(id).expect("trampoline");
        assert_eq!(m.counter().since(&before), 2 * SGX_INSTRUCTION_CYCLES);
        assert!(m.enclave(id).expect("enclave").is_entered());
    }

    #[test]
    fn eremove_frees_pages() {
        let mut m = small_machine();
        let id = build_enclave(&mut m, 2);
        let used = m.epc_used_pages();
        m.eremove(id, 0x10000).expect("remove");
        assert_eq!(m.epc_used_pages(), used - 1);
        assert!(m.enclave_read(id, 0x10000, 1).is_err());
    }

    #[test]
    fn epc_exhaustion_surfaces() {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 2, // SECS + 1 page
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 3,
        });
        let id = m.ecreate(0x10000, (4 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("fits");
        assert!(matches!(
            m.eadd(id, 0x11000, &[], PagePerms::RWX),
            Err(SgxError::Epc(_))
        ));
    }

    #[test]
    fn eaug_adds_pages_to_initialized_enclave_on_v2() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, (4 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("eadd");
        m.einit(id).expect("einit");
        // Dynamic addition post-EINIT (impossible with EADD).
        m.eaug(id, 0x11000).expect("eaug");
        // Unusable until the enclave accepts it.
        m.eaccept(id, 0x11000).expect("eaccept");
        m.enclave_write(id, 0x11000, &[5, 6, 7])
            .expect("write new page");
        assert_eq!(m.enclave_read(id, 0x11000, 3).expect("read"), vec![5, 6, 7]);
        // EAUG'd pages are zeroed.
        assert_eq!(m.enclave_read(id, 0x11800, 4).expect("read"), vec![0; 4]);
    }

    #[test]
    fn eaug_rejected_on_v1_and_while_building() {
        let mut m1 = SgxMachine::new(MachineConfig {
            epc_pages: 16,
            version: SgxVersion::V1,
            device_key_bits: 512,
            seed: 4,
        });
        let id = build_enclave(&mut m1, 1);
        let _ = id;
        let id2 = m1
            .ecreate(0x40000, (2 * PAGE_SIZE) as u64)
            .expect("ecreate");
        m1.eadd(id2, 0x40000, &[], PagePerms::RWX).expect("eadd");
        m1.einit(id2).expect("einit");
        assert!(matches!(
            m1.eaug(id2, 0x41000),
            Err(SgxError::NotSupported { .. })
        ));

        let mut m2 = small_machine();
        let building = m2
            .ecreate(0x50000, (2 * PAGE_SIZE) as u64)
            .expect("ecreate");
        assert!(matches!(
            m2.eaug(building, 0x50000),
            Err(SgxError::WrongState { .. })
        ));
    }

    /// The 48-update EEXTEND record sequence of one page: for each
    /// 256-byte chunk, the tag, the chunk's offset and the chunk.
    fn eextend_records(hasher: &mut Sha256, offset: u64, data: &[u8]) {
        let mut page = [0u8; PAGE_SIZE];
        let len = data.len().min(PAGE_SIZE);
        page[..len].copy_from_slice(&data[..len]);
        for (chunk, bytes) in page.chunks_exact(256).enumerate() {
            hasher.update(b"EEXTEND");
            hasher.update(&(offset + (chunk * 256) as u64).to_le_bytes());
            hasher.update(bytes);
        }
    }

    #[test]
    fn eextend_page_hashes_the_eextend_records() {
        use engarde_rand::harness::{pick, vec_u8, Property};

        Property::new("eextend_page_hashes_the_eextend_records")
            .cases(128)
            .run(|rng| {
                // An odd-length prefix leaves the hasher mid-block, so
                // every record lands at an unaligned position.
                let odd = 2 * rng.gen_range(0..64usize) + 1;
                let prefix = vec_u8(rng, odd..odd + 1);
                let offset = match rng.gen_range(0..3) {
                    0 => rng.gen_range(0..1u64 << 32) & !(PAGE_SIZE as u64 - 1),
                    1 => rng.gen_range(0..=u64::MAX - PAGE_SIZE as u64),
                    _ => *pick(rng, &[0, u64::MAX - PAGE_SIZE as u64]),
                };
                let data = match rng.gen_range(0..5) {
                    0 => Vec::new(),
                    1 => vec_u8(rng, 1..PAGE_SIZE),
                    2 => vec_u8(rng, PAGE_SIZE..PAGE_SIZE + 1),
                    3 => vec![0u8; *pick(rng, &[1, 256, PAGE_SIZE - 1, PAGE_SIZE])],
                    _ => vec_u8(rng, PAGE_SIZE + 1..2 * PAGE_SIZE),
                };
                let mut reference = Sha256::new();
                reference.update(&prefix);
                let mut log = MeasurementLog {
                    hasher: reference.clone(),
                };
                eextend_records(&mut reference, offset, &data);
                log.eextend_page(offset, &data);
                // A second page after the first keeps the chain honest.
                eextend_records(&mut reference, offset / 2, &[]);
                log.eextend_page(offset / 2, &[]);
                assert_eq!(
                    log.finalize(),
                    reference.finalize(),
                    "prefix {}, offset {offset:#x}, {} bytes",
                    prefix.len(),
                    data.len()
                );
            });
    }

    #[test]
    fn secs_and_eaug_ciphertext_are_pinned() {
        let mut m = small_machine();
        let id = m.ecreate(0x10000, (2 * PAGE_SIZE) as u64).expect("ecreate");
        m.eadd(id, 0x10000, &[], PagePerms::RWX).expect("eadd");
        m.einit(id).expect("einit");
        m.eaug(id, 0x11000).expect("eaug");
        let secs = (0..m.config.epc_pages)
            .find(|&i| {
                m.epc
                    .epcm(i)
                    .is_some_and(|e| e.page_type == PageType::Secs && e.enclave_id == id)
            })
            .expect("SECS page");
        let secs_bus = m.epc.read_ciphertext(secs).expect("SECS ciphertext");
        let eaug_bus = m.adversary_read_page(id, 0x11000).expect("EAUG page");
        assert_eq!(
            Sha256::digest(&secs_bus).to_hex(),
            "6765380d4058c9d4029885d209d2824d2fd1c6a4a48fe23d8a460c7a6b1bd761"
        );
        assert_eq!(
            Sha256::digest(&eaug_bus).to_hex(),
            "55be1632682f3053f7de61ec522217cbeed6d13c3a1edcc9f895771b0ac47bb4"
        );
    }

    #[test]
    fn unaligned_ecreate_rejected() {
        let mut m = small_machine();
        assert!(m.ecreate(0x10001, PAGE_SIZE as u64).is_err());
        assert!(m.ecreate(0x10000, 100).is_err());
        assert!(m.ecreate(0x10000, 0).is_err());
    }
}
