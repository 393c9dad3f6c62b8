//! # engarde
//!
//! Umbrella crate for the EnGarde stack — a from-scratch Rust
//! reproduction of *EnGarde: Mutually-Trusted Inspection of SGX Enclaves*
//! (Nguyen & Ganapathy, ICDCS 2017).
//!
//! EnGarde lets a cloud provider and a mutually-distrusting client agree
//! on policies an enclave's code must satisfy; an attested in-enclave
//! inspector enforces them at provisioning time with zero runtime
//! overhead. This crate re-exports the whole stack:
//!
//! - [`rand`] — self-contained deterministic randomness (ChaCha20 DRBG)
//!   plus the in-tree property-test harness,
//! - [`crypto`] — SHA-256/HMAC/AES/RSA + the provisioning channel,
//! - [`elf`] — ELF64 reader/writer,
//! - [`x86`] — x86-64 decoder/encoder + NaCl validation,
//! - [`sgx`] — the software SGX machine (OpenSGX stand-in),
//! - [`workloads`] — synthetic paper benchmarks,
//! - [`store`] — the sealed, crash-safe persistent verdict store,
//! - [`serve`] — the concurrent multi-tenant provisioning service,
//! - the EnGarde core modules ([`provider`], [`client`], [`policy`], …).
//!
//! # Examples
//!
//! See `examples/quickstart.rs` for the full provisioning flow, or the
//! end-to-end example on [`provider::CloudProvider`]'s crate
//! (`engarde-core`) documentation.
//!
//! ```
//! use engarde::workloads::bench_suite::{PaperBenchmark, PolicyFigure};
//!
//! let nginx = PaperBenchmark::by_name("Nginx").expect("in the suite");
//! assert_eq!(nginx.instructions_for(PolicyFigure::Fig3LibraryLinking), 262_228);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use engarde_crypto as crypto;
pub use engarde_elf as elf;
pub use engarde_rand as rand;
pub use engarde_serve as serve;
pub use engarde_sgx as sgx;
pub use engarde_store as store;
pub use engarde_workloads as workloads;
pub use engarde_x86 as x86;

pub use engarde_core::{
    client, error, exec, loader, policy, protocol, provider, provision, relocate, symbols,
    EngardeError, MUSL_DB_VERSION,
};
