//! The secret-dependent-branch policy: flag or deny conditional
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
    /// When false, recompute the analyses privately (ablation path).
    pub use_shared_analysis: bool,
    /// When true (default), a tainted branch rejects the binary; when
    /// false, the policy only counts and reports them.
    pub deny: bool,
    declared_sources: Vec<SecretRange>,
}

impl SecretDependentBranch {
    /// The standard (denying) configuration.
    pub fn new() -> Self {
        SecretDependentBranch {
            use_shared_analysis: true,
            deny: true,
            declared_sources: Vec::new(),
        }
    }

    /// Flag-only configuration: tainted branches are counted in the
    /// report but do not reject.
    pub fn flag_only() -> Self {
        SecretDependentBranch {
            deny: false,
            ..SecretDependentBranch::new()
        }
    }

    /// Ablation configuration: recompute the analyses privately.
    pub fn without_shared_analysis() -> Self {
        SecretDependentBranch {
            use_shared_analysis: false,
            ..SecretDependentBranch::new()
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
        // PASS may replay.
        let mut d = b"secret-dependent-branch:v4".to_vec();
        d.push(u8::from(self.deny));
        d.extend_from_slice(&descriptor_ranges(&self.declared_sources));
        d
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = taint_for_policy(ctx, self.use_shared_analysis, &self.declared_sources);
        let flagged = taint.branch_findings().count();
        if self.deny {
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
        }
        Ok(PolicyReport {
            policy: "secret-dependent-branch",
            items_checked: taint.steps as usize,
            detail: format!(
                "{flagged} secret-dependent branch(es) flagged, deny={}",
                self.deny
            ),
        })
    }
}
