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
use crate::analysis::ProgramAnalysis;
use crate::error::EngardeError;

/// The secret-leakage policy module.
pub struct SecretLeakage {
    /// When false, the policy recomputes the analyses privately instead
    /// of reading the shared memo (the ablation path, mirroring
    /// [`super::CodeReachability`]).
    pub use_shared_analysis: bool,
    /// When true (the default), a tainted store through an address the
    /// constant lattice cannot resolve is itself a violation: the
    /// analysis cannot prove the write stays inside the enclave, so a
    /// mutually-suspicious verifier must reject rather than guess.
    /// `lenient()` preserves the pre-memory-domain behavior for
    /// ablation and for pinning the old false-PASS as a regression.
    pub strict_unresolved_stores: bool,
    declared_sources: Vec<SecretRange>,
}

impl SecretLeakage {
    /// The standard configuration: shared analysis, loader-known
    /// sources only, strict about unresolved tainted stores.
    pub fn new() -> Self {
        SecretLeakage {
            use_shared_analysis: true,
            strict_unresolved_stores: true,
            declared_sources: Vec::new(),
        }
    }

    /// Ablation configuration: recompute the analyses privately.
    pub fn without_shared_analysis() -> Self {
        SecretLeakage {
            use_shared_analysis: false,
            ..SecretLeakage::new()
        }
    }

    /// Lenient configuration: unresolved-address tainted stores are
    /// tracked (they still weak-update the memory environment and are
    /// counted in [`TaintStats`](crate::analysis::TaintStats)) but do
    /// not reject on their own — the pre-spill-fix policy surface.
    pub fn lenient() -> Self {
        SecretLeakage {
            strict_unresolved_stores: false,
            ..SecretLeakage::new()
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

/// Resolves the taint analysis a policy should judge: the shared memo
/// when possible, a private (re)computation when the policy declares
/// extra sources or opts out of sharing. Returns an owned clone so both
/// paths unify; the clone is cheap next to the analysis itself.
pub(super) fn taint_for_policy(
    ctx: &mut PolicyContext<'_>,
    use_shared: bool,
    declared: &[SecretRange],
) -> TaintAnalysis {
    if declared.is_empty() && use_shared {
        return ctx.taint().clone();
    }
    let binary = ctx.binary();
    let mut sources = binary.secret_ranges.clone();
    sources.extend_from_slice(declared);
    let private_analysis;
    let analysis = if use_shared {
        ctx.analysis()
    } else {
        let (computed, cost) = ProgramAnalysis::compute(binary);
        ctx.charge(cost);
        private_analysis = computed;
        &private_analysis
    };
    let (taint, cost) = TaintAnalysis::compute(binary, analysis, &sources);
    ctx.charge(cost);
    taint
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
        // v2: the spill-aware memory domain plus the strictness flag
        // are part of what the provider agrees to run, so both are
        // bound into the measurement. v3: one stack-address rule for
        // every base register — the v2 engine passed rbp/rsp alias
        // spills and untrusted-%rbp stores, and the verdict cache and
        // store seal keys derive from this descriptor, so no v2 PASS
        // may be replayed. v4: taint follows every instruction's
        // decoded effects (unclassified forms, partial and high-byte
        // register writes, no-base and segment-overridden operands,
        // `leave`), so no v3 PASS may be replayed.
        let mut d = b"secret-leakage:v4".to_vec();
        d.push(self.strict_unresolved_stores as u8);
        d.extend_from_slice(&descriptor_ranges(&self.declared_sources));
        d
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let taint = taint_for_policy(ctx, self.use_shared_analysis, &self.declared_sources);
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
        if self.strict_unresolved_stores {
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
