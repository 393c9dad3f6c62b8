//! The in-enclave EnGarde component and its bootstrap description.
//!
//! EnGarde "primarily consists of in-enclave components that are loaded
//! when an enclave is created" (§3): the crypto channel endpoint, the
//! loader/disassembler, and the agreed-upon policy modules. The
//! [`BootstrapSpec`] serialises that configuration into the bootstrap
//! pages, so the enclave measurement — verified by *both* the provider
//! and the client through attestation — pins the exact EnGarde build and
//! policy set. [`EngardeEnclave`] is the running in-enclave state
//! machine: it receives encrypted page chunks, reassembles them and
//! inspects the content along one path, [`EngardeEnclave::inspect`].
//! Only the judgement (a [`CachedVerdict`]) forks: a verdict-cache hit
//! replays it, a miss pays for disassembly and the policies. The
//! page-kind check, the mapping of a compliant binary, the cache insert
//! and the signature each run once, in one place. The outcome is what
//! the provider may learn ([`ProviderView`]) plus the verdict signed for
//! the client.

use crate::analysis::{SecretClass, SecretRange};
use crate::cache::{lock_cache, CacheKey, CachedVerdict, SharedVerdictCache};
use crate::error::EngardeError;
use crate::loader::{load_parsed, LoadedBinary, LoaderConfig};
use crate::policy::{run_policies_with_cache, AnalysisCache, PolicyModule};
use crate::protocol::{classify_pages, ContentManifest, PagePayload, SignedVerdict};
use crate::provider::ProviderView;
use crate::relocate::map_and_relocate;
use engarde_crypto::channel::{ChannelServer, SealedBlock, Session};
use engarde_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use engarde_crypto::sha256::{Digest, Sha256};
use engarde_elf::parse::ElfFile;
use engarde_rand::Rng;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::machine::{EnclaveId, MeasurementLog, SgxMachine};
use engarde_sgx::perf::costs;

/// Default enclave base linear address.
pub const DEFAULT_ENCLAVE_BASE: u64 = 0x0010_0000;

/// The agreed EnGarde build: version, loader settings, policy set, and
/// memory layout. Both parties derive the expected enclave measurement
/// from this.
#[derive(Clone, Debug)]
pub struct BootstrapSpec {
    /// EnGarde version string.
    pub version: String,
    /// Loader configuration (heap size, allocation strategy).
    pub loader: LoaderConfig,
    /// `(name, descriptor)` of each agreed policy module, in run order.
    pub policy_descriptors: Vec<(String, Vec<u8>)>,
    /// Pages committed for the client's code/data/bss.
    pub client_region_pages: usize,
    /// Modulus size of the enclave's ephemeral RSA key (2048 in the
    /// paper; tests use smaller for speed).
    pub rsa_bits: usize,
}

impl BootstrapSpec {
    /// Builds the spec from the actual policy modules (descriptors are
    /// taken from the modules, so spec and behaviour cannot drift).
    pub fn new(
        version: &str,
        loader: LoaderConfig,
        policies: &[Box<dyn PolicyModule>],
        client_region_pages: usize,
        rsa_bits: usize,
    ) -> Self {
        BootstrapSpec {
            version: version.to_string(),
            loader,
            policy_descriptors: policies
                .iter()
                .map(|p| (p.name().to_string(), p.descriptor()))
                .collect(),
            client_region_pages,
            rsa_bits,
        }
    }

    /// Serialises the spec into the bootstrap page contents. These bytes
    /// stand in for EnGarde's code: they are what gets measured.
    pub fn to_bootstrap_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"ENGARDE-BOOTSTRAP-V1\n");
        out.extend_from_slice(self.version.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&(self.loader.heap_pages as u64).to_be_bytes());
        out.push(matches!(
            self.loader.allocation,
            crate::loader::AllocationStrategy::PagePerCall
        ) as u8);
        // The loader's version. 1 was the section-based loader; 2 decodes,
        // classifies and maps one validated segment view, so a verdict
        // cached or sealed by the old loader (whose cache and seal keys
        // derive from these bytes) cannot replay.
        out.push(2);
        out.push(self.loader.recover_stripped_symbols as u8);
        out.extend_from_slice(&(self.client_region_pages as u64).to_be_bytes());
        out.extend_from_slice(&(self.rsa_bits as u64).to_be_bytes());
        // This byte once encoded a switch; it stays 0 so that no
        // measurement, cache key or seal key moves.
        out.push(0);
        out.extend_from_slice(&(self.policy_descriptors.len() as u64).to_be_bytes());
        for (name, descriptor) in &self.policy_descriptors {
            out.extend_from_slice(&(name.len() as u64).to_be_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(descriptor.len() as u64).to_be_bytes());
            out.extend_from_slice(descriptor);
        }
        out
    }

    /// The enclave's page layout: the one plan both the provider's build
    /// and the client's expected measurement walk.
    pub(crate) fn page_plan(&self) -> PagePlan {
        PagePlan {
            bootstrap: self.to_bootstrap_bytes(),
            client_region_pages: self.client_region_pages,
        }
    }

    /// Number of bootstrap pages the serialised spec occupies.
    pub fn bootstrap_pages(&self) -> usize {
        self.page_plan().bootstrap_pages()
    }

    /// Total enclave size in bytes (bootstrap + client region).
    pub fn enclave_size(&self) -> u64 {
        self.page_plan().size()
    }

    /// The client-region base for an enclave at `base`.
    pub fn client_region_base(&self, base: u64) -> u64 {
        base + (self.bootstrap_pages() * PAGE_SIZE) as u64
    }

    /// Predicts the measurement of an enclave built from this spec at
    /// `base` — what the remote client compares the attestation quote
    /// against.
    pub fn expected_measurement(&self, base: u64) -> Digest {
        let plan = self.page_plan();
        let mut log = MeasurementLog::new(base, plan.size());
        for (offset, contents, perms) in plan.pages() {
            log.eadd(offset, perms);
            log.eextend_page(offset, contents);
        }
        log.finalize()
    }
}

/// The pages of an EnGarde enclave, derived once from its
/// [`BootstrapSpec`]: the bootstrap bytes as RX pages, padded to
/// [`PagePlan::bootstrap_pages`], then `client_region_pages` zero RWX
/// pages.
pub(crate) struct PagePlan {
    bootstrap: Vec<u8>,
    client_region_pages: usize,
}

impl PagePlan {
    /// Pages the bootstrap bytes occupy (at least one).
    fn bootstrap_pages(&self) -> usize {
        self.bootstrap.len().div_ceil(PAGE_SIZE).max(1)
    }

    /// Enclave size in bytes.
    pub(crate) fn size(&self) -> u64 {
        ((self.bootstrap_pages() + self.client_region_pages) * PAGE_SIZE) as u64
    }

    /// Every page in build order, as `(offset from the enclave base,
    /// contents, permissions)`; contents shorter than a page are
    /// zero-filled.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (u64, &[u8], PagePerms)> {
        let bootstrap = self
            .bootstrap
            .chunks(PAGE_SIZE)
            .chain(std::iter::repeat(&[][..]))
            .take(self.bootstrap_pages())
            .map(|chunk| (chunk, PagePerms::RX));
        let client_region =
            std::iter::repeat_n((&[][..], PagePerms::RWX), self.client_region_pages);
        bootstrap
            .chain(client_region)
            .enumerate()
            .map(|(i, (contents, perms))| ((i * PAGE_SIZE) as u64, contents, perms))
    }
}

/// Per-stage cycle totals — the columns of the paper's Figs. 3–5 plus
/// the (unreported) receive/decrypt stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StageCycles {
    /// Channel decryption and reassembly of the client content.
    pub receive_decrypt: u64,
    /// Disassembly (the "Disassembly" column).
    pub disassembly: u64,
    /// Policy checking (the "Policy Checking" column).
    pub policy_checking: u64,
    /// Loading and relocation (the "Loading and Relocation" column).
    pub loading_relocation: u64,
}

impl StageCycles {
    /// Sum of all stages.
    pub fn total(&self) -> u64 {
        self.receive_decrypt + self.disassembly + self.policy_checking + self.loading_relocation
    }
}

/// The outcome of an inspection: what the provider may learn, plus the
/// verdict signed for the client.
#[derive(Clone, Debug)]
pub struct InspectionOutcome {
    /// The provider's view: compliance, executable pages, stage
    /// cycles, cache hit, aggregate taint counters.
    pub view: ProviderView,
    /// The signed verdict for the client.
    pub verdict: SignedVerdict,
}

/// The client content a session holds, from the manifest to inspection.
enum Content {
    /// No manifest yet.
    AwaitingManifest,
    /// The manifest, and each declared page once it has arrived.
    Receiving {
        manifest: ContentManifest,
        pages: Vec<Option<Vec<u8>>>,
    },
    /// Moved out by [`EngardeEnclave::inspect`]: a session judges its
    /// content once, and holds none of it afterwards.
    Inspected,
}

/// What only the inspection needs. [`EngardeEnclave::inspect`] moves
/// it out in the same step that takes the content, so every way out of
/// the inspection, signed or `Err`, drops it.
struct Secrets {
    /// The ephemeral key pair: it unwraps the client's session key and
    /// signs the verdict.
    server: ChannelServer,
    /// The open channel.
    session: Option<Session>,
    /// The agreed policy modules.
    policies: Vec<Box<dyn PolicyModule>>,
}

/// The in-enclave EnGarde state machine.
pub struct EngardeEnclave {
    enclave: EnclaveId,
    base: u64,
    spec: BootstrapSpec,
    /// The ephemeral public key, advertised for the session's lifetime.
    public_key: RsaPublicKey,
    /// `None` once inspection has taken the content.
    secrets: Option<Secrets>,
    content: Content,
    receive_cycles: u64,
    injected_memory_failures: u32,
}

impl std::fmt::Debug for EngardeEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (received, declared) = match &self.content {
            Content::Receiving { pages, .. } => {
                (pages.iter().filter(|p| p.is_some()).count(), pages.len())
            }
            Content::AwaitingManifest | Content::Inspected => (0, 0),
        };
        write!(
            f,
            "EngardeEnclave(id={}, pages_received={received}/{declared})",
            self.enclave,
        )
    }
}

impl EngardeEnclave {
    /// Boots EnGarde inside enclave `enclave` at `base`: generates the
    /// ephemeral RSA key pair (2048-bit in the paper's deployment).
    pub fn boot<R: Rng + ?Sized>(
        rng: &mut R,
        enclave: EnclaveId,
        base: u64,
        spec: BootstrapSpec,
        policies: Vec<Box<dyn PolicyModule>>,
    ) -> Self {
        let server = ChannelServer::new(RsaKeyPair::generate(rng, spec.rsa_bits));
        EngardeEnclave {
            enclave,
            base,
            spec,
            public_key: server.public_key().clone(),
            secrets: Some(Secrets {
                server,
                session: None,
                policies,
            }),
            content: Content::AwaitingManifest,
            receive_cycles: 0,
            injected_memory_failures: 0,
        }
    }

    /// Fault hook: the next `failures` receives fail with in-enclave
    /// working-memory exhaustion — a deterministic stand-in for the
    /// scratch-allocation failures a genuinely memory-starved EnGarde
    /// instance reports. Transient by classification, so a retrying
    /// service recovers once the counter drains.
    pub fn inject_working_memory_pressure(&mut self, failures: u32) {
        self.injected_memory_failures = failures;
    }

    /// The enclave id EnGarde runs in.
    pub fn enclave_id(&self) -> EnclaveId {
        self.enclave
    }

    /// The ephemeral public key advertised to the client (also bound
    /// into the attestation quote).
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Whether the session still holds its private key: from boot until
    /// [`EngardeEnclave::inspect`] takes the content.
    #[cfg(test)]
    pub(crate) fn holds_private_key(&self) -> bool {
        self.secrets.is_some()
    }

    /// Digest of the public key, bound into the quote's report data.
    pub fn public_key_digest(&self) -> [u8; 64] {
        let mut h = Sha256::new();
        h.update(&self.public_key().modulus_be());
        h.update(&self.public_key().exponent_be());
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(h.finalize().as_bytes());
        out
    }

    /// Accepts the client's wrapped AES-256 session key.
    ///
    /// # Errors
    ///
    /// Propagates channel failures; a protocol error once inspection
    /// has taken the content and the private key is gone.
    pub fn open_channel(&mut self, wrapped_key: &[u8]) -> Result<(), EngardeError> {
        let Some(secrets) = &mut self.secrets else {
            return Err(EngardeError::Protocol {
                what: "channel after inspection".into(),
            });
        };
        secrets.session = Some(secrets.server.accept(wrapped_key)?);
        Ok(())
    }

    /// Receives one sealed block (the manifest first, then page chunks),
    /// charging decryption work to the machine's counter. A block that
    /// arrives after inspection is refused unopened.
    ///
    /// # Errors
    ///
    /// Channel authentication, ordering, and protocol-format failures.
    pub fn receive(
        &mut self,
        machine: &mut SgxMachine,
        block: &SealedBlock,
    ) -> Result<(), EngardeError> {
        if self.injected_memory_failures > 0 {
            self.injected_memory_failures -= 1;
            return Err(EngardeError::OutOfEnclaveMemory {
                what: "injected working-memory pressure",
            });
        }
        let pages = match &mut self.content {
            Content::AwaitingManifest => None,
            Content::Receiving { pages, .. } => Some(pages),
            // Refused before the block is opened: refused content costs
            // no decryption.
            Content::Inspected => {
                return Err(EngardeError::Protocol {
                    what: "content after inspection".into(),
                })
            }
        };
        let session = self
            .secrets
            .as_mut()
            .and_then(|secrets| secrets.session.as_mut())
            .ok_or_else(|| EngardeError::Protocol {
                what: "content before channel establishment".into(),
            })?;
        let decrypt_cost = block.ciphertext.len() as u64 * costs::DECRYPT_PER_BYTE;
        machine.counter_mut().charge_native(decrypt_cost);
        self.receive_cycles += decrypt_cost;
        let plaintext = session.open(block)?;
        match pages {
            None => {
                let manifest = ContentManifest::from_bytes(&plaintext)?;
                let pages = vec![None; manifest.page_count()];
                self.content = Content::Receiving { manifest, pages };
            }
            Some(pages) => {
                let payload = PagePayload::from_bytes(&plaintext)?;
                let Some(slot) = pages.get_mut(payload.index) else {
                    return Err(EngardeError::PageIndexOutOfRange {
                        index: payload.index,
                        pages: pages.len(),
                    });
                };
                if slot.is_some() {
                    return Err(EngardeError::DuplicatePage {
                        index: payload.index,
                    });
                }
                *slot = Some(payload.data);
            }
        }
        Ok(())
    }

    /// True once the manifest and every declared page have arrived, and
    /// until inspection takes them.
    pub fn content_complete(&self) -> bool {
        matches!(&self.content, Content::Receiving { pages, .. } if pages.iter().all(Option::is_some))
    }

    /// Moves the received content and the secrets out of the session
    /// and joins the pages into the image, dropping each page as it is
    /// copied. The buffer grows from the bytes that arrived, never from
    /// the manifest's declared length. Content that is incomplete stays
    /// in the session; content already inspected is a protocol error.
    fn take_content(&mut self) -> Result<(Vec<u8>, ContentManifest, Secrets), EngardeError> {
        match &self.content {
            Content::AwaitingManifest => {
                return Err(EngardeError::Protocol {
                    what: "no manifest received".into(),
                })
            }
            Content::Receiving { pages, .. } => {
                if let Some(i) = pages.iter().position(Option::is_none) {
                    return Err(EngardeError::Protocol {
                        what: format!("page {i} missing"),
                    });
                }
            }
            Content::Inspected => {}
        }
        let (Content::Receiving { manifest, pages }, Some(secrets)) = (
            std::mem::replace(&mut self.content, Content::Inspected),
            self.secrets.take(),
        ) else {
            return Err(EngardeError::Protocol {
                what: "content already inspected".into(),
            });
        };
        let mut image = Vec::with_capacity(pages.iter().flatten().map(Vec::len).sum());
        for page in pages.into_iter().flatten() {
            image.extend_from_slice(&page);
        }
        if image.len() != manifest.total_len {
            return Err(EngardeError::Protocol {
                what: format!(
                    "reassembled {} bytes, manifest declared {}",
                    image.len(),
                    manifest.total_len
                ),
            });
        }
        Ok((image, manifest, secrets))
    }

    /// Inspects the received content and signs the verdict. The
    /// declared page kinds are verified against the bytes (mixed pages
    /// are rejected). The judgement comes from `cache` on a hit, else
    /// from disassembly and policy checking. A compliant judgement is
    /// then loaded and relocated into the client region.
    ///
    /// Structural, policy and mapping failures yield a signed rejection,
    /// not an `Err`. Whatever the outcome, the session afterwards holds
    /// only the public key: the key pair, the channel and the policy
    /// modules are dropped with the content. The cache key binds the
    /// spec's bootstrap bytes to the SHA-256 of the reassembled image
    /// (see [`crate::cache`]); every probe charges
    /// [`costs::CACHE_PROBE`], reported in the disassembly column. A miss
    /// inserts its judgement after mapping.
    ///
    /// # Errors
    ///
    /// Incomplete content, content already inspected (the first
    /// inspection takes it, error or not), page kinds that do not match
    /// the content, other protocol violations, SGX failures, and
    /// signing failures. None of them is cached.
    pub fn inspect(
        &mut self,
        machine: &mut SgxMachine,
        cache: Option<&SharedVerdictCache>,
    ) -> Result<InspectionOutcome, EngardeError> {
        let (image, manifest, secrets) = self.take_content()?;
        let Secrets {
            server, policies, ..
        } = secrets;
        let content_digest = Sha256::digest(&image);
        let probe = cache.map(|cache| {
            machine.counter_mut().charge_native(costs::CACHE_PROBE);
            let key = CacheKey::derive(&self.spec.to_bootstrap_bytes(), &content_digest);
            (cache, key)
        });
        let hit = probe
            .as_ref()
            .and_then(|(cache, key)| lock_cache(cache).lookup(key));
        let cache_hit = hit.is_some();
        let mut judgement = hit.unwrap_or_default();
        let mut stages = StageCycles {
            receive_decrypt: self.receive_cycles,
            ..Default::default()
        };

        let mapped = (|| -> Result<Vec<u64>, EngardeError> {
            // The one parse of the received image. Fail closed, hit or
            // miss: a cached verdict vouches for the content, not for
            // this session's framing of it.
            let elf = ElfFile::parse(&image)?;
            if classify_pages(&elf, image.len())? != manifest.page_kinds {
                return Err(EngardeError::Protocol {
                    what: "client-declared page kinds do not match the content".into(),
                });
            }
            let (elf, image) = if cache_hit {
                (elf, image)
            } else {
                let loaded =
                    self.judge(machine, &policies, elf, image, &mut stages, &mut judgement)?;
                (loaded.elf, loaded.raw_image)
            };
            if !judgement.compliant {
                return Ok(Vec::new());
            }
            // Loading and relocation are per-enclave work a hit never
            // skips.
            let snap = *machine.counter();
            let mapping = map_and_relocate(
                machine,
                self.enclave,
                &elf,
                &image,
                self.spec.client_region_base(self.base),
                self.spec.client_region_pages,
            )?;
            stages.loading_relocation = machine.counter().since(&snap);
            Ok(mapping.exec_pages)
        })();
        let exec_pages = match mapped {
            Ok(pages) => pages,
            Err(e @ (EngardeError::Protocol { .. } | EngardeError::Sgx(_))) => return Err(e),
            Err(reason) => {
                // The judgement's cycles and taint counters stay: the
                // analysis that said "no" is part of the accounting.
                judgement = CachedVerdict {
                    compliant: false,
                    detail: reason.to_string(),
                    instructions: 0,
                    ..judgement
                };
                Vec::new()
            }
        };

        // Rejections are deterministic functions of (content,
        // configuration) too, so a fleet re-submitting a non-compliant
        // binary re-hears "no" without re-paying the analysis.
        if let (Some((cache, key)), false) = (probe, cache_hit) {
            let verdict = CachedVerdict {
                disassembly_cycles: stages.disassembly,
                policy_cycles: stages.policy_checking,
                ..judgement.clone()
            };
            lock_cache(cache).insert(key, verdict);
        }
        if cache.is_some() {
            stages.disassembly += costs::CACHE_PROBE;
        }
        // Same detail, same digest, the session's own key: a replayed
        // verdict signs exactly the bytes a cold inspection would.
        let verdict = sign_verdict(
            &server,
            judgement.compliant,
            &judgement.detail,
            &content_digest,
        )?;
        Ok(InspectionOutcome {
            view: ProviderView {
                compliant: judgement.compliant,
                exec_pages,
                stages,
                instructions: judgement.instructions,
                cache_hit,
                taint: judgement.taint,
            },
            verdict,
        })
    }

    /// Disassembly and policy checking: the judgement a cache miss pays
    /// for. Fills the two analysis columns of `stages` as each stage
    /// completes, and `judgement` with the compliant verdict. A policy
    /// run that fails still leaves its memo's taint counters there.
    /// Returns the judged binary, which owns `image`.
    fn judge(
        &self,
        machine: &mut SgxMachine,
        policies: &[Box<dyn PolicyModule>],
        elf: ElfFile,
        image: Vec<u8>,
        stages: &mut StageCycles,
        judgement: &mut CachedVerdict,
    ) -> Result<LoadedBinary, EngardeError> {
        // The staging region the decrypted client content occupies — a
        // taint source on top of the loader's channel-key range.
        let region = self.spec.client_region_base(self.base);
        let decrypted_content = SecretRange {
            start: region,
            end: region + (self.spec.client_region_pages * PAGE_SIZE) as u64,
            class: SecretClass::DecryptedContent,
        };

        let snap = *machine.counter();
        let mut loaded = load_parsed(machine, self.enclave, elf, image, &self.spec.loader)?;
        loaded.secret_ranges.push(decrypted_content);
        stages.disassembly = machine.counter().since(&snap);

        let snap = *machine.counter();
        let memo = AnalysisCache::new();
        let result = run_policies_with_cache(policies, &loaded, machine.counter_mut(), &memo);
        judgement.taint = memo.taint_stats();
        let reports = result?;
        stages.policy_checking = machine.counter().since(&snap);

        judgement.compliant = true;
        judgement.detail = reports
            .iter()
            .map(|r| format!("{}: {} items", r.policy, r.items_checked))
            .collect::<Vec<_>>()
            .join("; ");
        judgement.instructions = loaded.insns.len();
        Ok(loaded)
    }
}

fn sign_verdict(
    server: &ChannelServer,
    compliant: bool,
    detail: &str,
    content_digest: &Digest,
) -> Result<SignedVerdict, EngardeError> {
    let msg = SignedVerdict::message(compliant, detail, content_digest);
    let signature = server.sign(&msg)?;
    Ok(SignedVerdict {
        compliant,
        detail: detail.to_string(),
        content_digest: *content_digest,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LibraryLinkingPolicy;
    use engarde_workloads::libc::{Instrumentation, LibcLibrary};

    fn policies() -> Vec<Box<dyn PolicyModule>> {
        let lib = LibcLibrary::build(Instrumentation::None);
        vec![Box::new(LibraryLinkingPolicy::new(
            "musl-libc",
            lib.function_hashes(),
        ))]
    }

    fn spec() -> BootstrapSpec {
        BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &policies(), 64, 512)
    }

    #[test]
    fn bootstrap_bytes_are_deterministic_and_policy_sensitive() {
        let a = spec().to_bootstrap_bytes();
        let b = spec().to_bootstrap_bytes();
        assert_eq!(a, b);
        let no_policy = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
        assert_ne!(a, no_policy.to_bootstrap_bytes());
    }

    #[test]
    fn bootstrap_bytes_are_pinned() {
        // These bytes are what the enclave measurement covers. The
        // loader byte after the allocation strategy is the loader's
        // version (2: one validated segment view). The IFCC descriptor's
        // trailing byte once encoded a switch and stays 1 so that no
        // measurement moves.
        let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(crate::policy::IfccPolicy::new())];
        let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &policies, 64, 512);
        let mut want = b"ENGARDE-BOOTSTRAP-V1\nEnGarde-1.0\n".to_vec();
        want.extend_from_slice(&5_000u64.to_be_bytes()); // heap pages
        want.extend_from_slice(&[1, 2, 0]); // page-per-call, loader version 2, no recovery
        want.extend_from_slice(&64u64.to_be_bytes()); // client region pages
        want.extend_from_slice(&512u64.to_be_bytes()); // RSA bits
        want.push(0); // no rewriting
        want.extend_from_slice(&1u64.to_be_bytes()); // one policy
        want.extend_from_slice(&22u64.to_be_bytes());
        want.extend_from_slice(b"indirect-function-call");
        want.extend_from_slice(&6u64.to_be_bytes());
        want.extend_from_slice(b"ifcc:\x01");
        assert_eq!(spec.to_bootstrap_bytes(), want);
    }

    #[test]
    fn expected_measurement_is_layout_sensitive() {
        let s = spec();
        let m1 = s.expected_measurement(DEFAULT_ENCLAVE_BASE);
        let m2 = s.expected_measurement(DEFAULT_ENCLAVE_BASE);
        assert_eq!(m1, m2);
        assert_ne!(m1, s.expected_measurement(DEFAULT_ENCLAVE_BASE + 0x1000));
        let bigger = BootstrapSpec {
            client_region_pages: 65,
            ..s
        };
        assert_ne!(m1, bigger.expected_measurement(DEFAULT_ENCLAVE_BASE));
    }

    #[test]
    fn bootstrap_page_count_scales_with_descriptors() {
        let s = spec();
        assert!(s.bootstrap_pages() >= 1);
        assert_eq!(
            s.enclave_size(),
            ((s.bootstrap_pages() + 64) * PAGE_SIZE) as u64
        );
        assert_eq!(
            s.client_region_base(0x100000),
            0x100000 + (s.bootstrap_pages() * PAGE_SIZE) as u64
        );
    }

    #[test]
    fn stage_cycles_total() {
        let s = StageCycles {
            receive_decrypt: 1,
            disassembly: 2,
            policy_checking: 3,
            loading_relocation: 4,
        };
        assert_eq!(s.total(), 10);
    }
}
