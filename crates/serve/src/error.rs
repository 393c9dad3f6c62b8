//! The service layer's error type: the service-level outcomes
//! (admission rejection, eviction, retry exhaustion, lost workers) next
//! to the EnGarde failures a session's protocol run can return, plus
//! the classification of which of those a fresh attempt can recover.

use engarde_core::EngardeError;
use std::error::Error;
use std::fmt;

/// Why a session was evicted by the service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictReason {
    /// The client stopped delivering before the manifest's page count
    /// was satisfied.
    ClientStalled,
    /// The whole session (attempts plus backoff) exceeded its
    /// end-to-end cycle budget.
    SessionBudgetExceeded,
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictReason::ClientStalled => write!(f, "client stalled mid-transfer"),
            EvictReason::SessionBudgetExceeded => write!(f, "session cycle budget exceeded"),
        }
    }
}

/// Any failure produced by the `engarde-serve` layer.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ServeError {
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
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
