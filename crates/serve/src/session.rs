//! What a tenant submits: one [`SessionRequest`] per provisioning
//! session, plus the [`PolicyFactory`] that builds its agreed policy
//! modules on whichever shard runs it.
//!
//! The protocol order itself (attest → channel → deliver → inspect →
//! verdict) is enforced by the two parties that run it: the tenant's
//! [`Client`] refuses a channel before a verified quote and content
//! before a channel, and the provider's enclave refuses content before
//! a channel and inspection before the transfer is complete. A shard
//! drives both directly ([`crate::pool::Shard::run_session`]).
//!
//! [`Client`]: engarde_core::client::Client

use engarde_core::cache::CacheKey;
use engarde_core::policy::PolicyModule;
use engarde_core::provision::BootstrapSpec;
use engarde_crypto::sha256::Sha256;
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
