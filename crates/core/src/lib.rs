//! # engarde-core
//!
//! EnGarde: mutually-trusted inspection of SGX enclaves — the paper's
//! primary contribution, reproduced end to end on the `engarde-sgx`
//! software machine.
//!
//! A cloud provider and a client who do not trust each other agree on a
//! set of policies; the provider boots a fresh enclave containing
//! EnGarde (whose measurement, covering the policy configuration, both
//! parties verify via attestation); the client ships its binary over an
//! end-to-end encrypted channel; EnGarde disassembles and checks it
//! *inside* the enclave and only loads it if compliant. The provider
//! learns exactly two things: the verdict and the executable-page list.
//!
//! - [`provision`] — the bootstrap spec (measurement-bound policy
//!   configuration) and the in-enclave state machine,
//! - [`provider`] / [`client`] — the two mutually-distrusting parties,
//! - [`loader`] — ELF validation + in-enclave disassembly,
//! - [`analysis`] — the shared static-analysis engine (CFG, call graph,
//!   reachability, constant propagation) the policies consume,
//! - [`exec`] — an interpreter that runs the provisioned code against
//!   the simulated enclave (proving W^X and the canary instrumentation
//!   hold at runtime),
//! - [`policy`] — the pluggable policy framework and the paper's three
//!   modules (library linking, stack protection, IFCC),
//! - [`relocate`] — segment mapping and RELA application,
//! - [`protocol`] — page-granularity transfer types and signed verdicts,
//! - [`symbols`] — the loader's symbol hash table.
//!
//! # Examples
//!
//! End-to-end provisioning of a compliant binary:
//!
//! ```
//! use engarde_core::client::Client;
//! use engarde_core::loader::LoaderConfig;
//! use engarde_core::policy::{LibraryLinkingPolicy, PolicyModule};
//! use engarde_core::provider::CloudProvider;
//! use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
//! use engarde_sgx::instr::SgxVersion;
//! use engarde_sgx::machine::MachineConfig;
//! use engarde_workloads::generator::{generate, WorkloadSpec};
//! use engarde_workloads::libc::{Instrumentation, LibcLibrary};
//!
//! # fn main() -> Result<(), engarde_core::error::EngardeError> {
//! let make_policies = || -> Vec<Box<dyn PolicyModule>> {
//!     let lib = LibcLibrary::build(Instrumentation::None);
//!     vec![Box::new(LibraryLinkingPolicy::new("musl-libc", lib.function_hashes()))]
//! };
//! let spec = BootstrapSpec::new(
//!     "EnGarde-1.0", LoaderConfig::default(), &make_policies(), 64, 512,
//! );
//!
//! let mut provider = CloudProvider::new(MachineConfig {
//!     epc_pages: 512,
//!     version: SgxVersion::V2,
//!     device_key_bits: 512,
//!     seed: 42,
//! });
//! let enclave = provider.create_engarde_enclave(spec.clone(), make_policies())?;
//!
//! let binary = generate(&WorkloadSpec { target_instructions: 6_000, ..Default::default() });
//! let mut client = Client::new(
//!     binary.image, &spec, DEFAULT_ENCLAVE_BASE, provider.device_public_key(), 7,
//! );
//!
//! // Attest, open the channel, ship the content.
//! let nonce = client.challenge();
//! let quote = provider.attest(enclave, nonce)?;
//! let enclave_key = provider.enclave_public_key(enclave)?;
//! client.verify_quote(&quote, &enclave_key)?;
//! let wrapped = client.establish_channel(&enclave_key)?;
//! provider.open_channel(enclave, &wrapped)?;
//! for block in client.content_blocks()? {
//!     provider.deliver(enclave, &block)?;
//! }
//!
//! // Inspect; verify the signed verdict.
//! let view = provider.inspect_and_provision(enclave)?;
//! assert!(view.compliant);
//! let verdict = provider.signed_verdict(enclave).expect("verdict recorded");
//! assert!(client.verify_verdict(verdict, &enclave_key)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod client;
pub mod error;
pub mod exec;
pub mod loader;
pub mod policy;
pub mod protocol;
pub mod provider;
pub mod provision;
pub mod relocate;
pub mod symbols;

pub use error::EngardeError;

/// The musl-libc version the bundled hash database models (§5).
pub const MUSL_DB_VERSION: &str = "1.0.5";
