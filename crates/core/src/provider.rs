//! The cloud provider: enclave creation, message transport, and the
//! host-side enforcement component.
//!
//! The provider creates a fresh enclave provisioned with EnGarde, proves
//! to the client (via the quoting enclave) that it was created securely,
//! shuttles the client's encrypted blocks into the enclave — which it
//! cannot read — and, once EnGarde reports the verdict, locks page
//! permissions and prevents further extension (§3).
//!
//! What the provider *learns* is exactly the paper's contract: the
//! compliance verdict and the virtual addresses of the client's code
//! pages ([`ProviderView`]) — nothing else crosses the boundary.

use crate::cache::SharedVerdictCache;
use crate::error::EngardeError;
use crate::policy::PolicyModule;
use crate::protocol::SignedVerdict;
use crate::provision::{
    BootstrapSpec, EngardeEnclave, InspectionOutcome, StageCycles, DEFAULT_ENCLAVE_BASE,
};
use engarde_crypto::channel::SealedBlock;
use engarde_crypto::rsa::RsaPublicKey;
use engarde_rand::{SeedableRng, StdRng};
use engarde_sgx::attest::{Quote, QuotingEnclave};
use engarde_sgx::host::HostOs;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Ephemeral enclave key sizes the provider will generate. The size
/// comes from the tenant's spec: under 128 bits key generation panics,
/// the verdict's PKCS#1 SHA-256 signature needs 496, and above 4096 one
/// prime search can stall a worker for minutes.
pub const ENCLAVE_RSA_BITS: RangeInclusive<usize> = 512..=4096;

/// Everything the provider is allowed to learn from an inspection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProviderView {
    /// Whether the client's content is policy-compliant.
    pub compliant: bool,
    /// Virtual addresses of the client's executable pages (needed to set
    /// page permissions). Empty on rejection.
    pub exec_pages: Vec<u64>,
    /// Provisioning-stage cycle costs (observable by the provider anyway
    /// through timing).
    pub stages: StageCycles,
    /// Instructions inspected (proportional to content size, which the
    /// provider already sees as ciphertext volume).
    pub instructions: usize,
    /// Whether the disassembly+policy verdict came from the verdict
    /// cache (observable by the provider anyway through timing).
    pub cache_hit: bool,
    /// Taint-analysis counters, when a taint-backed policy ran. Only
    /// aggregate numbers — finding addresses stay inside the enclave.
    pub taint: Option<crate::analysis::TaintStats>,
}

/// The cloud provider's machine, host OS, and active EnGarde sessions.
pub struct CloudProvider {
    host: HostOs,
    sessions: HashMap<EnclaveId, EngardeEnclave>,
    verdicts: HashMap<EnclaveId, SignedVerdict>,
    rng: StdRng,
    verdict_cache: Option<SharedVerdictCache>,
    injected_epc_failures: u32,
}

impl std::fmt::Debug for CloudProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CloudProvider({} sessions)", self.sessions.len())
    }
}

impl CloudProvider {
    /// Boots a provider on a fresh SGX machine.
    pub fn new(machine_config: MachineConfig) -> Self {
        let seed = machine_config.seed ^ 0x00F0_0D5E;
        CloudProvider {
            host: HostOs::new(SgxMachine::new(machine_config)),
            sessions: HashMap::new(),
            verdicts: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            verdict_cache: None,
            injected_epc_failures: 0,
        }
    }

    /// Fault hook: the next `failures` calls to [`CloudProvider::deliver`]
    /// fail with transient EPC exhaustion, exactly as a machine under
    /// page pressure would. A service layer uses this to rehearse its
    /// retry/backoff path deterministically; the counter decrements per
    /// failure, so a bounded spike is always recoverable within a
    /// sufficient retry budget.
    pub fn inject_epc_pressure(&mut self, failures: u32) {
        self.injected_epc_failures = failures;
    }

    /// Fault hook: the next `failures` receives into enclave `id` fail
    /// with in-enclave working-memory exhaustion (the other transient
    /// error class on the deliver path).
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves.
    pub fn inject_working_memory_pressure(
        &mut self,
        id: EnclaveId,
        failures: u32,
    ) -> Result<(), EngardeError> {
        self.session_mut(id)?
            .inject_working_memory_pressure(failures);
        Ok(())
    }

    /// Attaches a (possibly shared) content-addressed verdict cache:
    /// subsequent inspections probe it and insert their verdicts. The
    /// same cache handle may be attached to several providers — that is
    /// how a multi-shard service shares verdicts across tenants.
    pub fn set_verdict_cache(&mut self, cache: SharedVerdictCache) {
        self.verdict_cache = Some(cache);
    }

    /// The attached verdict cache, if any.
    pub fn verdict_cache(&self) -> Option<&SharedVerdictCache> {
        self.verdict_cache.as_ref()
    }

    /// The host OS (inspection and tests).
    pub fn host(&self) -> &HostOs {
        &self.host
    }

    /// Mutable host access (attack simulations in tests).
    pub fn host_mut(&mut self) -> &mut HostOs {
        &mut self.host
    }

    /// The machine's device public key — what remote clients pin to
    /// verify quotes.
    pub fn device_public_key(&self) -> RsaPublicKey {
        self.host.machine().device_key().public().clone()
    }

    /// Creates and initializes a fresh EnGarde enclave from the agreed
    /// spec and policy modules.
    ///
    /// The provider audits that the modules match the spec's descriptors
    /// (both parties can inspect EnGarde's code, §3); a mismatch is
    /// refused before any enclave is built, as is a key size outside
    /// [`ENCLAVE_RSA_BITS`].
    ///
    /// # Errors
    ///
    /// Fails on descriptor mismatch, an unsupported key size, or SGX
    /// build errors.
    pub fn create_engarde_enclave(
        &mut self,
        spec: BootstrapSpec,
        policies: Vec<Box<dyn PolicyModule>>,
    ) -> Result<EnclaveId, EngardeError> {
        let actual: Vec<(String, Vec<u8>)> = policies
            .iter()
            .map(|p| (p.name().to_string(), p.descriptor()))
            .collect();
        if actual != spec.policy_descriptors {
            return Err(EngardeError::Protocol {
                what: "policy modules do not match the agreed bootstrap spec".into(),
            });
        }
        if !ENCLAVE_RSA_BITS.contains(&spec.rsa_bits) {
            return Err(EngardeError::Protocol {
                what: format!(
                    "enclave key size {} bits is outside {}..={}",
                    spec.rsa_bits,
                    ENCLAVE_RSA_BITS.start(),
                    ENCLAVE_RSA_BITS.end()
                ),
            });
        }

        let base = DEFAULT_ENCLAVE_BASE;
        let plan = spec.page_plan();
        let id = self.host.create_enclave(base, plan.size())?;
        // Build the enclave; on any failure (EPC exhaustion mid-build
        // included) tear the partial enclave down so its pages are not
        // leaked — a service retrying under pressure depends on this.
        let built = (|host: &mut HostOs| -> Result<(), EngardeError> {
            // EnGarde's code and policy configuration, then the client
            // region, writable until finalization.
            for (offset, contents, perms) in plan.pages() {
                host.add_page(id, base + offset, contents, perms)?;
            }
            host.machine_mut().einit(id)?;
            host.machine_mut().eenter(id)?;
            Ok(())
        })(&mut self.host);
        if let Err(e) = built {
            let _ = self.host.destroy_enclave(id);
            return Err(e);
        }

        let engarde = EngardeEnclave::boot(&mut self.rng, id, base, spec, policies);
        self.sessions.insert(id, engarde);
        Ok(id)
    }

    fn session(&self, id: EnclaveId) -> Result<&EngardeEnclave, EngardeError> {
        self.sessions.get(&id).ok_or_else(|| no_session(id))
    }

    fn session_mut(&mut self, id: EnclaveId) -> Result<&mut EngardeEnclave, EngardeError> {
        self.sessions.get_mut(&id).ok_or_else(|| no_session(id))
    }

    /// Answers a client's attestation challenge: the quoting enclave
    /// signs the enclave's measurement with the channel public key bound
    /// into the report data.
    ///
    /// # Errors
    ///
    /// Propagates quoting failures.
    pub fn attest(&mut self, id: EnclaveId, nonce: [u8; 32]) -> Result<Quote, EngardeError> {
        let report_data = self.session(id)?.public_key_digest();
        Ok(QuotingEnclave::quote(
            self.host.machine_mut(),
            id,
            report_data,
            nonce,
        )?)
    }

    /// The enclave's ephemeral public key (forwarded to the client; its
    /// digest is already bound into the quote).
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves.
    pub fn enclave_public_key(&self, id: EnclaveId) -> Result<RsaPublicKey, EngardeError> {
        Ok(self.session(id)?.public_key().clone())
    }

    /// Forwards the client's wrapped session key into the enclave.
    ///
    /// # Errors
    ///
    /// Propagates channel failures.
    pub fn open_channel(&mut self, id: EnclaveId, wrapped_key: &[u8]) -> Result<(), EngardeError> {
        self.session_mut(id)?.open_channel(wrapped_key)
    }

    /// Forwards one encrypted content block into the enclave. The
    /// provider never sees the plaintext.
    ///
    /// # Errors
    ///
    /// Propagates channel and protocol failures from inside the enclave.
    pub fn deliver(&mut self, id: EnclaveId, block: &SealedBlock) -> Result<(), EngardeError> {
        if self.injected_epc_failures > 0 {
            self.injected_epc_failures -= 1;
            return Err(EngardeError::Sgx(engarde_sgx::SgxError::Epc(
                engarde_sgx::epc::EpcError::OutOfPages,
            )));
        }
        let session = self.sessions.get_mut(&id).ok_or_else(|| no_session(id))?;
        session.receive(self.host.machine_mut(), block)
    }

    /// Runs EnGarde's inspection over the delivered content. On
    /// compliance, applies the host-side enforcement: executable pages
    /// become X-not-W, the rest W-not-X, and the enclave is locked
    /// against extension. On rejection, the enclave is torn down (the
    /// provider "can prevent the client from creating the enclave").
    ///
    /// # Errors
    ///
    /// Protocol errors (incomplete content, or a session already
    /// inspected: the first inspection takes its content) and SGX
    /// failures.
    pub fn inspect_and_provision(&mut self, id: EnclaveId) -> Result<ProviderView, EngardeError> {
        let session = self.sessions.get_mut(&id).ok_or_else(|| no_session(id))?;
        let InspectionOutcome { view, verdict } =
            session.inspect(self.host.machine_mut(), self.verdict_cache.as_ref())?;
        self.verdicts.insert(id, verdict);
        if view.compliant {
            self.host
                .finalize_provisioned_enclave(id, &view.exec_pages)?;
        }
        Ok(view)
    }

    /// The signed verdict for the client to fetch and verify — the
    /// provider cannot forge or flip it.
    pub fn signed_verdict(&self, id: EnclaveId) -> Option<&SignedVerdict> {
        self.verdicts.get(&id)
    }

    /// Number of live EnGarde sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the session's content transfer is complete (manifest plus
    /// every declared page received) — what a service layer polls before
    /// scheduling inspection.
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves.
    pub fn content_complete(&self, id: EnclaveId) -> Result<bool, EngardeError> {
        Ok(self.session(id)?.content_complete())
    }

    /// The enclave's measurement as recorded by the machine (what the
    /// quote attests). `None` before `EINIT` or for unknown enclaves.
    pub fn measurement(&self, id: EnclaveId) -> Option<engarde_crypto::sha256::Digest> {
        self.host
            .machine()
            .enclave(id)
            .and_then(|e| e.measurement())
    }

    /// Closes a session and tears the enclave down, releasing its EPC
    /// pages for new tenants. The signed verdict (if one was produced)
    /// survives so the client can still fetch it. Returns the number of
    /// EPC pages released.
    ///
    /// This is the service layer's recycling and eviction path: evicted
    /// sessions are destroyed mid-protocol, completed ones once their
    /// tenant departs.
    ///
    /// # Errors
    ///
    /// Fails when neither a session nor an enclave exists for `id`.
    pub fn close_session(&mut self, id: EnclaveId) -> Result<usize, EngardeError> {
        let had_session = self.sessions.remove(&id).is_some();
        match self.host.destroy_enclave(id) {
            Ok(freed) => Ok(freed),
            Err(_) if had_session => Ok(0),
            Err(e) => Err(EngardeError::Sgx(e)),
        }
    }
}

fn no_session(id: EnclaveId) -> EngardeError {
    EngardeError::Protocol {
        what: format!("no EnGarde session for enclave {id}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::loader::LoaderConfig;
    use crate::policy::WxSegments;
    use crate::protocol::{ContentManifest, PageKind, PagePayload};
    use engarde_crypto::channel::ChannelClient;
    use engarde_sgx::epc::PAGE_SIZE;
    use engarde_sgx::instr::SgxVersion;
    use engarde_workloads::generator::{generate, WorkloadSpec};

    #[test]
    fn an_inspected_session_holds_no_private_key() {
        // Signed PASS, signed FAIL and an inspection error alike: once
        // inspection has taken the content, the session keeps the public
        // key it advertised and nothing it could unwrap a session key or
        // sign another verdict with.
        let policies = || -> Vec<Box<dyn PolicyModule>> { vec![Box::new(WxSegments::new())] };
        let spec = BootstrapSpec::new(
            "EnGarde-1.0",
            LoaderConfig::default(),
            &policies(),
            128,
            512,
        );
        let compliant = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        })
        .image;
        let rejected = engarde_workloads::adversarial::wx_segment().image;
        for (seed, image, pass) in [(3, compliant.clone(), true), (4, rejected, false)] {
            let mut p = CloudProvider::new(MachineConfig {
                epc_pages: 1_024,
                version: SgxVersion::V2,
                device_key_bits: 512,
                seed,
            });
            let id = p
                .create_engarde_enclave(spec.clone(), policies())
                .expect("create");
            let mut c = Client::new(
                image,
                &spec,
                DEFAULT_ENCLAVE_BASE,
                p.device_public_key(),
                seed,
            );
            let nonce = c.challenge();
            let quote = p.attest(id, nonce).expect("attest");
            let key = p.enclave_public_key(id).expect("key");
            c.verify_quote(&quote, &key).expect("quote");
            let wrapped = c.establish_channel(&key).expect("channel");
            p.open_channel(id, &wrapped).expect("open");
            for b in &c.content_blocks().expect("blocks") {
                p.deliver(id, b).expect("deliver");
            }
            assert!(p.session(id).expect("session").holds_private_key());

            let view = p.inspect_and_provision(id).expect("inspection");
            assert_eq!(view.compliant, pass);
            let session = p.session(id).expect("session");
            assert!(!session.holds_private_key());
            assert_eq!(p.enclave_public_key(id).expect("key"), key);
            let verdict = p.signed_verdict(id).expect("verdict");
            assert_eq!(c.verify_verdict(verdict, &key).expect("verdict"), pass);

            let err = p.open_channel(id, &wrapped).unwrap_err();
            assert!(
                matches!(&err, EngardeError::Protocol { what } if what == "channel after inspection"),
                "got {err}"
            );
        }

        // An inspection that ends in `Err` releases the key too: here the
        // client calls every page data, so the declared page kinds do not
        // match the content and nothing is signed.
        let mut p = CloudProvider::new(MachineConfig {
            epc_pages: 1_024,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 5,
        });
        let id = p.create_engarde_enclave(spec, policies()).expect("create");
        let key = p.enclave_public_key(id).expect("key");
        let mut rng = StdRng::seed_from_u64(9);
        let (wrapped, mut channel) = ChannelClient::establish(&mut rng, &key).expect("channel");
        p.open_channel(id, &wrapped).expect("open");
        let manifest = ContentManifest {
            total_len: compliant.len(),
            page_kinds: vec![PageKind::Data; compliant.len().div_ceil(PAGE_SIZE)],
        };
        p.deliver(id, &channel.seal(&manifest.to_bytes()))
            .expect("manifest");
        for (index, chunk) in compliant.chunks(PAGE_SIZE).enumerate() {
            let page = PagePayload {
                index,
                data: chunk.to_vec(),
            };
            p.deliver(id, &channel.seal(&page.to_bytes()))
                .expect("page");
        }
        assert!(p.session(id).expect("session").holds_private_key());
        let err = p.inspect_and_provision(id).unwrap_err();
        assert!(
            matches!(&err, EngardeError::Protocol { what } if what.contains("page kinds")),
            "got {err}"
        );
        assert!(p.signed_verdict(id).is_none());
        assert!(!p.session(id).expect("session").holds_private_key());
        assert_eq!(p.enclave_public_key(id).expect("key"), key);
        let err = p.open_channel(id, &wrapped).unwrap_err();
        assert!(
            matches!(&err, EngardeError::Protocol { what } if what == "channel after inspection"),
            "got {err}"
        );
    }
}
