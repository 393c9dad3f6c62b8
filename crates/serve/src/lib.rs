//! # engarde-serve
//!
//! A concurrent multi-tenant provisioning service over the EnGarde
//! inspection stack: the paper's one-client protocol (attest → channel
//! → deliver → inspect → verdict), operated at cloud scale.
//!
//! The layers:
//!
//! - [`session`] — the per-tenant protocol as a typed state machine;
//!   illegal orderings (deliver before the channel opens, inspect before
//!   the transfer completes, double-inspect) are
//!   [`error::ServeError::IllegalTransition`] values, not stringly
//!   protocol errors.
//! - [`pool`] — shards: one [`CloudProvider`]-on-its-own-machine per
//!   shard, running sessions with eviction (stalled clients, delivery
//!   cycle budgets), retry-with-budget under transient EPC pressure, and
//!   EPC recycling via enclave teardown.
//! - [`service`] — admission control (bounded queue, `Busy`
//!   backpressure, optional same-binary batch admission) in front of
//!   the fleet, scheduled by per-worker deques with work stealing: each
//!   worker owns a deque of session items, pops its own front, and
//!   steals a peer's oldest item when idle — a dead worker's deque is
//!   drained by peers, never lost. Two backends: a deterministic
//!   virtual-time mode driven purely by the SGX cost model (steal order
//!   a pure function of seed and tick; bit-reproducible — the headline
//!   measurement) and a real `std::thread` worker pool for wall-clock
//!   numbers.
//! - [`metrics`] — in-tree counters (each declared once), latency
//!   percentiles, and a bounded structured event log, exportable as
//!   JSON with zero dependencies.
//! - [`faults`] — deterministic fault injection: a seeded plan maps
//!   every arrival index to at most one fault (block corruption /
//!   truncation / drop / reorder / duplication, manifest flips, key
//!   mismatch, client stalls, EPC-pressure spikes, worker death). The
//!   invariant the fault tests enforce: every injected fault yields a
//!   typed error or clean rejection — never a panic, never a hang, and
//!   never a signed `PASS` — and a fault-free run with the layer
//!   enabled is bit-identical to one without it.
//! - [`persist`] — the sealed, crash-safe verdict store
//!   ([`engarde_store`]) bound to the fleet: the seal key is the
//!   inspector's own MRENCLAVE sealing identity, the service hydrates
//!   its cache from the store at warm start (known binaries re-admit
//!   for probe cost only), and dirty verdicts are flushed write-behind
//!   with the cost charged to virtual time. Store damage — torn
//!   writes, bit flips, lost segments — is injectable through the
//!   fault plan and recovers to the longest authenticated prefix.
//! - [`regimes`] — glue from the workload traffic generator to
//!   submittable session requests.
//!
//! # Examples
//!
//! ```
//! use engarde_serve::regimes;
//! use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig};
//! use engarde_workloads::traffic::{mixed_traffic, TrafficSpec};
//! use std::sync::Arc;
//!
//! let musl = Arc::new(regimes::musl_hashes());
//! let traffic = mixed_traffic(&TrafficSpec {
//!     sessions: 2,
//!     scale_percent: 5,
//!     adversarial_every: 2,
//!     ..TrafficSpec::default()
//! });
//! let mut svc = ProvisioningService::start(ServiceConfig {
//!     shards: 2,
//!     mode: SchedMode::VirtualTime { arrival_gap: 1_000_000 },
//!     ..ServiceConfig::default()
//! });
//! for item in &traffic {
//!     let _ = svc.submit(regimes::request_for(item, &musl));
//! }
//! let result = svc.drain();
//! assert_eq!(result.reports.len(), 2);
//! ```
//!
//! [`CloudProvider`]: engarde_core::provider::CloudProvider

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod regimes;
pub mod service;
pub mod session;

pub use error::{EvictReason, ServeError};
pub use faults::{FaultDirective, FaultKind, FaultMix, FaultPlan};
pub use metrics::ServeMetrics;
pub use persist::{store_seal_key, StoreConfig};
pub use pool::{BatchPolicy, SessionOutcome, SessionReport, SessionRunConfig, Shard};
pub use service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
pub use session::{PolicyFactory, SessionFsm, SessionPhase, SessionRequest};
