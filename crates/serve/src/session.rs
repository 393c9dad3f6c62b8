//! The session state machine: one tenant's provisioning protocol as a
//! typed FSM over the [`CloudProvider`] calls.
//!
//! The raw provider API will happily accept calls in any order and
//! answer with stringly-typed protocol errors; a busy service cannot
//! afford those footguns. [`SessionFsm`] pins the legal order —
//!
//! ```text
//! Created → Attested → ChannelOpen → Delivering → Complete → Inspected
//! ```
//!
//! — and turns every illegal transition (deliver before the channel
//! opens, inspect before the transfer completes, double-inspect) into
//! [`ServeError::IllegalTransition`] *before* any provider state is
//! touched. The FSM drives a real [`Client`] internally, so attestation
//! verification, channel establishment, and verdict verification all
//! run the genuine mutually-distrusting protocol.

use crate::error::ServeError;
use crate::faults::{self, FaultDirective};
use engarde_core::cache::CacheKey;
use engarde_core::client::Client;
use engarde_core::policy::PolicyModule;
use engarde_core::protocol::SignedVerdict;
use engarde_core::provider::{CloudProvider, ProviderView};
use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_crypto::channel::SealedBlock;
use engarde_crypto::rsa::RsaPublicKey;
use engarde_crypto::sha256::Sha256;
use engarde_sgx::machine::EnclaveId;
use std::sync::Arc;

/// Builds the session's agreed policy modules. Shared across threads so
/// one request can be queued anywhere in the fleet; each shard
/// constructs its own module instances.
pub type PolicyFactory = Arc<dyn Fn() -> Vec<Box<dyn PolicyModule>> + Send + Sync>;

/// Everything a tenant submits to the service.
#[derive(Clone)]
pub struct SessionRequest {
    /// Session name (unique per submission; appears in reports/events).
    pub name: String,
    /// The client's ELF image.
    pub binary: Vec<u8>,
    /// The agreed bootstrap spec (must match the factory's modules).
    pub spec: BootstrapSpec,
    /// Builds the agreed policy modules.
    pub policies: PolicyFactory,
    /// Seed for the tenant's client-side randomness.
    pub client_seed: u64,
    /// `Some(n)`: simulate a client that dies after `n` sealed blocks.
    pub stall_after: Option<usize>,
    /// `Some(i)`: pin this session's *home* deque to shard `i mod
    /// shards` instead of letting the scheduler pick the
    /// earliest-available shard. Work stealing may still run it
    /// elsewhere; the hint only shapes where it queues (benches use it
    /// to construct skewed fleets).
    pub shard_hint: Option<usize>,
}

impl SessionRequest {
    /// The admission-time batch key: the verdict-cache key of this
    /// request's (spec, binary) pair. The image EnGarde reassembles is
    /// the binary, so two requests with the same key provision identical
    /// content under the same spec, and one inspection's cached verdict
    /// serves both, which is what batch admission exploits. Computable
    /// from the request alone, before any delivery.
    pub fn admission_key(&self) -> CacheKey {
        CacheKey::derive(
            &self.spec.to_bootstrap_bytes(),
            &Sha256::digest(&self.binary),
        )
    }
}

impl std::fmt::Debug for SessionRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionRequest({}, {} bytes)",
            self.name,
            self.binary.len()
        )
    }
}

/// The phases of one provisioning session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionPhase {
    /// Enclave created, not yet attested.
    Created,
    /// Quote verified by the client.
    Attested,
    /// Encrypted channel established.
    ChannelOpen,
    /// At least one content block delivered, transfer incomplete.
    Delivering,
    /// Manifest and every declared page received.
    Complete,
    /// Verdict produced; the session is finished.
    Inspected,
}

impl SessionPhase {
    /// The phase name used in typed transition errors.
    pub fn name(self) -> &'static str {
        match self {
            SessionPhase::Created => "created",
            SessionPhase::Attested => "attested",
            SessionPhase::ChannelOpen => "channel-open",
            SessionPhase::Delivering => "delivering",
            SessionPhase::Complete => "content-complete",
            SessionPhase::Inspected => "inspected",
        }
    }
}

/// The result of a completed inspection, as the session observed it.
#[derive(Clone, Debug)]
pub struct SessionVerdict {
    /// The provider's view (verdict + exec pages + stage cycles).
    pub view: ProviderView,
    /// The enclave-signed verdict.
    pub verdict: SignedVerdict,
    /// Whether the *client* accepted the verdict (signature from the
    /// attested key, digest matches the content it sent).
    pub client_verified: bool,
}

/// One tenant session bound to a shard's [`CloudProvider`].
pub struct SessionFsm {
    name: String,
    enclave: EnclaveId,
    client: Client,
    enclave_key: Option<RsaPublicKey>,
    phase: SessionPhase,
    blocks_delivered: usize,
}

impl std::fmt::Debug for SessionFsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionFsm({}, enclave={}, phase={})",
            self.name,
            self.enclave,
            self.phase.name()
        )
    }
}

impl SessionFsm {
    /// Creates the EnGarde enclave for `req` on `provider` and enters
    /// the `Created` phase.
    ///
    /// # Errors
    ///
    /// Propagates enclave-creation failures (including EPC pressure,
    /// which the service layer may retry).
    pub fn create(provider: &mut CloudProvider, req: &SessionRequest) -> Result<Self, ServeError> {
        let enclave = provider.create_engarde_enclave(req.spec.clone(), (req.policies)())?;
        let client = Client::new(
            req.binary.clone(),
            &req.spec,
            DEFAULT_ENCLAVE_BASE,
            provider.device_public_key(),
            req.client_seed,
        );
        Ok(SessionFsm {
            name: req.name.clone(),
            enclave,
            client,
            enclave_key: None,
            phase: SessionPhase::Created,
            blocks_delivered: 0,
        })
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclave this session provisions.
    pub fn enclave(&self) -> EnclaveId {
        self.enclave
    }

    /// The current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// The attested enclave public key (after [`SessionFsm::attest`]).
    pub fn enclave_key(&self) -> Option<&RsaPublicKey> {
        self.enclave_key.as_ref()
    }

    /// SHA-256 fingerprint of the attested enclave key — the channel
    /// identity tests compare across tenants for leakage.
    pub fn enclave_key_fingerprint(&self) -> Option<[u8; 32]> {
        self.enclave_key.as_ref().map(|k| {
            let mut h = Sha256::new();
            h.update(&k.modulus_be());
            h.update(&k.exponent_be());
            *h.finalize().as_bytes()
        })
    }

    fn require(&self, want: &[SessionPhase], action: &'static str) -> Result<(), ServeError> {
        if want.contains(&self.phase) {
            Ok(())
        } else {
            Err(ServeError::IllegalTransition {
                phase: self.phase.name(),
                action,
            })
        }
    }

    /// Runs the attestation round trip: fresh client nonce, provider
    /// quote, client-side verification against the expected measurement
    /// and the key bound into the quote.
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] outside `Created`; attestation
    /// failures otherwise.
    pub fn attest(&mut self, provider: &mut CloudProvider) -> Result<(), ServeError> {
        self.require(&[SessionPhase::Created], "attest")?;
        let nonce = self.client.challenge();
        let quote = provider.attest(self.enclave, nonce)?;
        let key = provider.enclave_public_key(self.enclave)?;
        self.client.verify_quote(&quote, &key)?;
        self.enclave_key = Some(key);
        self.phase = SessionPhase::Attested;
        Ok(())
    }

    /// Establishes the encrypted channel (client wraps a fresh AES key
    /// under the attested enclave key).
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] outside `Attested`.
    pub fn open_channel(&mut self, provider: &mut CloudProvider) -> Result<(), ServeError> {
        self.open_channel_with(provider, None)
    }

    /// [`SessionFsm::open_channel`], with an optional fault directive
    /// that tampers the wrapped key in transit (the decrypt-key-
    /// mismatch fault: the enclave unwraps a different — or no — key,
    /// so establishment or the first MAC check fails with a typed
    /// error; tampering can never go unnoticed).
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] outside `Attested`; typed
    /// channel failures otherwise.
    pub fn open_channel_with(
        &mut self,
        provider: &mut CloudProvider,
        tamper: Option<&FaultDirective>,
    ) -> Result<(), ServeError> {
        self.require(&[SessionPhase::Attested], "open channel")?;
        let key = self
            .enclave_key
            .clone()
            .ok_or(ServeError::MissingSessionKey { phase: "attested" })?;
        let mut wrapped = self.client.establish_channel(&key)?;
        if let Some(d) = tamper {
            faults::tamper_wrapped_key(&mut wrapped, d);
        }
        provider.open_channel(self.enclave, &wrapped)?;
        self.phase = SessionPhase::ChannelOpen;
        Ok(())
    }

    /// Seals the client's content into transfer blocks (manifest first).
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] before the channel opens.
    pub fn content_blocks(&mut self) -> Result<Vec<SealedBlock>, ServeError> {
        self.require(
            &[SessionPhase::ChannelOpen, SessionPhase::Delivering],
            "seal content",
        )?;
        Ok(self.client.content_blocks()?)
    }

    /// Delivers one sealed block, advancing to `Complete` once the
    /// provider holds the manifest and every declared page.
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] before the channel opens or
    /// after completion; typed duplicate/out-of-range page errors and
    /// channel failures from the provider.
    pub fn deliver(
        &mut self,
        provider: &mut CloudProvider,
        block: &SealedBlock,
    ) -> Result<SessionPhase, ServeError> {
        self.require(
            &[SessionPhase::ChannelOpen, SessionPhase::Delivering],
            "deliver content",
        )?;
        provider.deliver(self.enclave, block)?;
        self.blocks_delivered += 1;
        self.phase = if provider.content_complete(self.enclave)? {
            SessionPhase::Complete
        } else {
            SessionPhase::Delivering
        };
        Ok(self.phase)
    }

    /// Number of blocks delivered so far.
    pub fn blocks_delivered(&self) -> usize {
        self.blocks_delivered
    }

    /// Runs the inspection, finalizes the enclave on compliance, and
    /// verifies the signed verdict client-side.
    ///
    /// # Errors
    ///
    /// [`ServeError::IllegalTransition`] unless the transfer is complete
    /// — double-inspection lands here too, since the first inspection
    /// moves the phase to `Inspected`.
    pub fn inspect(&mut self, provider: &mut CloudProvider) -> Result<SessionVerdict, ServeError> {
        self.require(&[SessionPhase::Complete], "inspect")?;
        let view = provider.inspect_and_provision(self.enclave)?;
        let verdict = provider
            .signed_verdict(self.enclave)
            .ok_or(ServeError::WorkerLost)?
            .clone();
        let key = self
            .enclave_key
            .clone()
            .ok_or(ServeError::MissingSessionKey {
                phase: "content-complete",
            })?;
        let client_verified = match self.client.verify_verdict(&verdict, &key) {
            Ok(agreed) => agreed == view.compliant,
            Err(_) => false,
        };
        self.phase = SessionPhase::Inspected;
        Ok(SessionVerdict {
            view,
            verdict,
            client_verified,
        })
    }

    /// Aborts the session: closes it on the provider and tears the
    /// enclave down, releasing EPC pages. Valid in every phase — this
    /// is the eviction path.
    ///
    /// # Errors
    ///
    /// Propagates teardown failures for unknown enclaves.
    pub fn abort(self, provider: &mut CloudProvider) -> Result<usize, ServeError> {
        Ok(provider.close_session(self.enclave)?)
    }
}
