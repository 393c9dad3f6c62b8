//! The secret-leakage policy: no tainted operand reaches an
//! out-of-enclave write or an exit/trampoline site.
//!
//! Built on the interprocedural taint pass
//! ([`crate::analysis::taint`]): sources are the loader's secret
//! ranges — the channel-key state block and the decrypted-content
//! staging region — plus any ranges declared on the policy itself;
//! sinks are stores whose resolved target lies outside the enclave's
//! mapped range and tainted operands feeding indirect jumps/calls. A
//! single surviving flow rejects the binary, naming the sink address
//! and the source classes that reach it.
//!
//! When no sources are declared, the policy reads the shared
//! [`crate::policy::AnalysisCache`] memo, so a fleet running several
//! taint-backed policies charges the analysis once per binary.
//! Declared sources force a private run — the shared memo stays keyed
//! to the loader-known source list, which is what the verdict cache
//! replays.

use super::{PolicyContext, PolicyModule, PolicyReport};
use crate::analysis::taint::{SecretRange, TaintAnalysis};
use crate::error::EngardeError;
use std::borrow::Cow;

/// The secret-leakage policy module.
pub struct SecretLeakage {
    declared_sources: Vec<SecretRange>,
}

impl SecretLeakage {
    /// The standard configuration: loader-known sources only.
    pub fn new() -> Self {
        SecretLeakage {
            declared_sources: Vec::new(),
        }
    }

    /// Adds policy-declared source ranges on top of the loader-known
    /// ones. Declared ranges are folded into the descriptor (and so the
    /// enclave measurement) and force a private taint run.
    #[must_use]
    pub fn with_declared_sources(mut self, sources: Vec<SecretRange>) -> Self {
        self.declared_sources = sources;
        self
    }
}

impl Default for SecretLeakage {
    fn default() -> Self {
        SecretLeakage::new()
    }
}

/// Resolves the taint analysis a policy should judge: the shared memo,
/// borrowed in place, when the policy declares no sources; otherwise a
/// private taint run, owned, over the shared program analysis.
pub(super) fn taint_for_policy<'a>(
    ctx: &mut PolicyContext<'a>,
    declared: &[SecretRange],
) -> Cow<'a, TaintAnalysis> {
    if declared.is_empty() {
        return Cow::Borrowed(ctx.taint());
    }
    let binary = ctx.binary();
    let mut sources = binary.secret_ranges.clone();
    sources.extend_from_slice(declared);
    let analysis = ctx.analysis();
    let (taint, cost) = TaintAnalysis::compute(binary, analysis, &sources);
    ctx.charge(cost);
    Cow::Owned(taint)
}

/// Serializes declared ranges into descriptor bytes, binding them into
/// the enclave measurement.
pub(super) fn descriptor_ranges(declared: &[SecretRange]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(declared.len() * 17);
    for r in declared {
        bytes.extend_from_slice(&r.start.to_le_bytes());
        bytes.extend_from_slice(&r.end.to_le_bytes());
        bytes.push(r.class.name().len() as u8);
    }
    bytes
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
        let mut d = b"secret-leakage:v4".to_vec();
        d.push(1);
        d.extend_from_slice(&descriptor_ranges(&self.declared_sources));
        d
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = taint_for_policy(ctx, &self.declared_sources);
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
    use crate::analysis::taint::SecretClass;

    #[test]
    fn descriptor_bytes_are_pinned() {
        // The descriptor feeds the enclave measurement, the verdict-cache
        // key and the store seal key; none of them may move silently.
        assert_eq!(
            SecretLeakage::new().descriptor(),
            b"secret-leakage:v4\x01".to_vec()
        );
        let declared = SecretLeakage::new().with_declared_sources(vec![SecretRange {
            start: 0x1000,
            end: 0x1010,
            class: SecretClass::Declared,
        }]);
        let mut want = b"secret-leakage:v4\x01".to_vec();
        want.extend_from_slice(&0x1000u64.to_le_bytes());
        want.extend_from_slice(&0x1010u64.to_le_bytes());
        want.push("declared-secret".len() as u8);
        assert_eq!(declared.descriptor(), want);
    }
}
