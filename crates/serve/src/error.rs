//! The service layer's error type.
//!
//! Protocol-order mistakes that used to be stringly-typed footguns
//! (deliver before the channel opens, inspect before the transfer
//! completes, inspect twice) are first-class variants here, as are the
//! service-level outcomes: admission rejection, eviction, and retry
//! exhaustion.

use engarde_core::EngardeError;
use std::error::Error;
use std::fmt;

/// Why a session was evicted by the service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictReason {
    /// The client stopped delivering before the manifest's page count
    /// was satisfied.
    ClientStalled,
    /// The session's delivery phase exceeded its cycle budget.
    DeliverBudgetExceeded,
    /// The whole session (attempts plus backoff) exceeded its
    /// end-to-end cycle budget.
    SessionBudgetExceeded,
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictReason::ClientStalled => write!(f, "client stalled mid-transfer"),
            EvictReason::DeliverBudgetExceeded => write!(f, "delivery cycle budget exceeded"),
            EvictReason::SessionBudgetExceeded => write!(f, "session cycle budget exceeded"),
        }
    }
}

/// Any failure produced by the `engarde-serve` layer.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A session method was called in a phase that does not allow it —
    /// the typed replacement for protocol-order footguns.
    IllegalTransition {
        /// The session's current phase.
        phase: &'static str,
        /// The attempted action.
        action: &'static str,
    },
    /// Admission control refused the session: the queue is full.
    Busy {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The service evicted the session.
    Evicted {
        /// Why.
        reason: EvictReason,
    },
    /// A transient failure persisted past the retry budget.
    RetriesExhausted {
        /// Attempts made (initial try included).
        attempts: u32,
        /// The final underlying error, rendered.
        last: String,
    },
    /// An underlying EnGarde failure.
    Engarde(EngardeError),
    /// A worker thread disappeared (panicked) mid-session.
    WorkerLost,
    /// Every worker in the pool is dead; the service cannot run any
    /// session. Returned typed from `submit` instead of hanging.
    PoolDead,
    /// The shard's circuit breaker is open: fault rates spiked and the
    /// shard is shedding load until its cooldown passes.
    LoadShed {
        /// The shedding shard.
        shard: usize,
    },
    /// A session phase that guarantees a channel key was entered
    /// without one — an internal invariant violation reported as a
    /// typed error instead of a panic.
    MissingSessionKey {
        /// The phase that should have held the key.
        phase: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::IllegalTransition { phase, action } => {
                write!(f, "illegal transition: cannot {action} while {phase}")
            }
            ServeError::Busy { queue_depth } => {
                write!(f, "service busy: queue depth {queue_depth}")
            }
            ServeError::Evicted { reason } => write!(f, "session evicted: {reason}"),
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            ServeError::Engarde(e) => write!(f, "provisioning failure: {e}"),
            ServeError::WorkerLost => write!(f, "worker thread lost"),
            ServeError::PoolDead => write!(f, "worker pool is dead: no live workers"),
            ServeError::LoadShed { shard } => {
                write!(f, "shard {shard} is shedding load (circuit breaker open)")
            }
            ServeError::MissingSessionKey { phase } => {
                write!(f, "session in phase {phase} holds no channel key")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Engarde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngardeError> for ServeError {
    fn from(e: EngardeError) -> Self {
        ServeError::Engarde(e)
    }
}

/// Whether an error is transient EPC pressure worth retrying: the EPC
/// ran out of pages or the in-enclave working memory was exhausted.
pub fn is_transient(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Engarde(
            EngardeError::Sgx(engarde_sgx::SgxError::Epc(
                engarde_sgx::epc::EpcError::OutOfPages
            )) | EngardeError::OutOfEnclaveMemory { .. }
        )
    )
}

/// Whether a fresh attempt is worth making: transient resource
/// pressure, or a *transport* failure — a sealed block that failed its
/// MAC or arrived out of sequence. Transport damage is per-attempt (a
/// retry reseals the content from scratch), so a corrupted, truncated,
/// dropped, reordered, or duplicated delivery is recoverable; the
/// tampered bytes themselves can never reach the inspector.
pub fn is_retryable(e: &ServeError) -> bool {
    is_transient(e) || matches!(e, ServeError::Engarde(EngardeError::Crypto(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = ServeError::IllegalTransition {
            phase: "created",
            action: "inspect",
        };
        assert!(e.to_string().contains("cannot inspect while created"));
        assert!(ServeError::Busy { queue_depth: 7 }
            .to_string()
            .contains('7'));
        assert!(ServeError::Evicted {
            reason: EvictReason::ClientStalled
        }
        .to_string()
        .contains("stalled"));
    }

    #[test]
    fn transient_classification() {
        let epc = ServeError::Engarde(EngardeError::Sgx(engarde_sgx::SgxError::Epc(
            engarde_sgx::epc::EpcError::OutOfPages,
        )));
        assert!(is_transient(&epc));
        let oom = ServeError::Engarde(EngardeError::OutOfEnclaveMemory {
            what: "insn buffer",
        });
        assert!(is_transient(&oom));
        assert!(!is_transient(&ServeError::PoolDead));
        assert!(!is_transient(&ServeError::Engarde(
            EngardeError::Protocol { what: "x".into() }
        )));
    }
}
