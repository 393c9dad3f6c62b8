//! The secret-dependent-branch policy: reject conditional
//! branches whose condition is tainted by secret data — the
//! side-channel shape an observer of the instruction-pointer trace
//! (page faults, cache sets, branch predictors) can read secrets
//! through.
//!
//! Shares the interprocedural taint pass with
//! [`super::SecretLeakage`]; the sink here is any `jcc` whose flags
//! taint is non-empty, including branches reached interprocedurally
//! (a callee branching on a secret its caller passed in is attributed
//! to the caller's call site).

use super::secret_leakage::{descriptor_ranges, taint_for_policy};
use super::{PolicyContext, PolicyModule, PolicyReport};
use crate::analysis::taint::SecretRange;
use crate::error::EngardeError;

/// The secret-dependent-branch policy module.
pub struct SecretDependentBranch {
    declared_sources: Vec<SecretRange>,
}

impl SecretDependentBranch {
    /// The standard configuration: loader-known sources only.
    pub fn new() -> Self {
        SecretDependentBranch {
            declared_sources: Vec::new(),
        }
    }

    /// Adds policy-declared source ranges (bound into the descriptor,
    /// forcing a private taint run).
    #[must_use]
    pub fn with_declared_sources(mut self, sources: Vec<SecretRange>) -> Self {
        self.declared_sources = sources;
        self
    }
}

impl Default for SecretDependentBranch {
    fn default() -> Self {
        SecretDependentBranch::new()
    }
}

impl PolicyModule for SecretDependentBranch {
    fn name(&self) -> &'static str {
        "secret-dependent-branch"
    }

    fn requires_symbols(&self) -> bool {
        false
    }

    fn descriptor(&self) -> Vec<u8> {
        // v2: branch taint now flows through spilled stack slots (the
        // memory domain), which changes what this module can find —
        // the measurement must say so. v3: stack slots named through
        // any base register with a known offset meet in one cell, so
        // the v2 engine's verdicts (cached or sealed) must not replay.
        // v4: flags flow through every instruction's decoded effects
        // (`test`, `setcc`, …) and a no-base load is resolved, so no v3
        // PASS may replay. The byte 1 after the tag says a tainted
        // branch rejects; it was a flag once and stays so that no
        // descriptor, measurement, cache key or seal key moves.
        let mut d = b"secret-dependent-branch:v4".to_vec();
        d.push(1);
        d.extend_from_slice(&descriptor_ranges(&self.declared_sources));
        d
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = taint_for_policy(ctx, &self.declared_sources);
        if let Some(f) = taint.branch_findings().next() {
            return Err(EngardeError::PolicyViolation {
                policy: "secret-dependent-branch",
                reason: format!(
                    "conditional branch at {:#x} conditions on {} data",
                    f.addr,
                    taint.describe_sources(f.sources)
                ),
            });
        }
        // The detail text is signed into verdicts and pinned by the
        // analysis golden, so it keeps the shape of the flag it once
        // reported.
        Ok(PolicyReport {
            policy: "secret-dependent-branch",
            items_checked: taint.steps as usize,
            detail: "0 secret-dependent branch(es) flagged, deny=true".to_string(),
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
            SecretDependentBranch::new().descriptor(),
            b"secret-dependent-branch:v4\x01".to_vec()
        );
        let declared = SecretDependentBranch::new().with_declared_sources(vec![SecretRange {
            start: 0x1000,
            end: 0x1010,
            class: SecretClass::Declared,
        }]);
        let mut want = b"secret-dependent-branch:v4\x01".to_vec();
        want.extend_from_slice(&0x1000u64.to_le_bytes());
        want.extend_from_slice(&0x1010u64.to_le_bytes());
        want.push("declared-secret".len() as u8);
        assert_eq!(declared.descriptor(), want);
    }
}
