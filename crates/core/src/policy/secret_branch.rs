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
//!
//! The policy is branch-only. A load or store whose *address* is
//! tainted (`mov rax, [table + rcx*8]` with `rcx` secret, a
//! secret-indexed table lookup) reaches no sink, and the loaded value
//! does not inherit the address registers' taint, so secret-dependent
//! memory accesses pass.

use super::{PolicyContext, PolicyModule, PolicyReport};
use crate::error::EngardeError;

/// The secret-dependent-branch policy module.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecretDependentBranch;

impl SecretDependentBranch {
    /// Creates the policy.
    pub fn new() -> Self {
        SecretDependentBranch
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
        b"secret-dependent-branch:v4\x01".to_vec()
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = ctx.taint();
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

    #[test]
    fn descriptor_bytes_are_pinned() {
        // The descriptor feeds the enclave measurement, the verdict-cache
        // key and the store seal key; none of them may move silently.
        assert_eq!(
            SecretDependentBranch::new().descriptor(),
            b"secret-dependent-branch:v4\x01".to_vec()
        );
    }
}
