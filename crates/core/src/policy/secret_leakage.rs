//! The secret-leakage policy: no tainted operand reaches an
//! out-of-enclave write or an exit/trampoline site.
//!
//! Built on the interprocedural taint pass
//! ([`crate::analysis::taint`]): sources are the loader's secret
//! ranges — the channel-key state block and the decrypted-content
//! staging region; sinks are stores whose resolved target lies outside
//! the enclave's mapped range and tainted operands feeding indirect
//! jumps/calls. A single surviving flow rejects the binary, naming the
//! sink address and the source classes that reach it.
//!
//! The policy reads the shared [`crate::policy::AnalysisCache`] taint
//! memo, so a fleet running several taint-backed policies charges the
//! analysis once per binary.

use super::{PolicyContext, PolicyModule, PolicyReport};
use crate::error::EngardeError;

/// The secret-leakage policy module.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecretLeakage;

impl SecretLeakage {
    /// Creates the policy.
    pub fn new() -> Self {
        SecretLeakage
    }
}

impl PolicyModule for SecretLeakage {
    fn name(&self) -> &'static str {
        "secret-leakage"
    }

    fn requires_symbols(&self) -> bool {
        // Works without symbols: the interprocedural half degrades to
        // entry-rooted intraprocedural tracking, still sound for the
        // sinks it reaches.
        false
    }

    fn descriptor(&self) -> Vec<u8> {
        // v2: the spill-aware memory domain is part of what the
        // provider agrees to run, so it is bound into the measurement.
        // v3: one stack-address rule for every base register — the v2
        // engine passed rbp/rsp alias spills and untrusted-%rbp stores,
        // and the verdict cache and store seal keys derive from this
        // descriptor, so no v2 PASS may be replayed. v4: taint follows
        // every instruction's decoded effects (unclassified forms,
        // partial and high-byte register writes, no-base and
        // segment-overridden operands, `leave`), so no v3 PASS may be
        // replayed. The byte 1 after the tag says unresolved tainted
        // stores reject; it was a flag once and stays so that no
        // descriptor, measurement, cache key or seal key moves.
        b"secret-leakage:v4\x01".to_vec()
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = ctx.taint();
        if let Some(f) = taint.leaks().next() {
            return Err(EngardeError::PolicyViolation {
                policy: "secret-leakage",
                reason: format!(
                    "{} at {:#x} receives {} data",
                    f.kind.name(),
                    f.addr,
                    taint.describe_sources(f.sources)
                ),
            });
        }
        // The analysis cannot prove such a write stays inside the
        // enclave, so a mutually-suspicious verifier rejects rather
        // than guesses.
        if let Some(f) = taint.unresolved_stores().next() {
            return Err(EngardeError::PolicyViolation {
                policy: "secret-leakage",
                reason: format!(
                    "{} at {:#x} writes {} data through an address the \
                     analysis cannot bound to enclave memory",
                    f.kind.name(),
                    f.addr,
                    taint.describe_sources(f.sources)
                ),
            });
        }
        Ok(PolicyReport {
            policy: "secret-leakage",
            items_checked: taint.steps as usize,
            detail: format!(
                "{} summaries over {} SCCs, {} fixpoint visits, {} spill cells, \
                 {} weak updates, 0 leaks",
                taint.summaries_computed,
                taint.scc_count,
                taint.fixpoint_iterations,
                taint.spill_cells,
                taint.weak_updates,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_bytes_are_pinned() {
        // The descriptor feeds the enclave measurement, the verdict-cache
        // key and the store seal key; none of them may move silently.
        assert_eq!(
            SecretLeakage::new().descriptor(),
            b"secret-leakage:v4\x01".to_vec()
        );
    }
}
