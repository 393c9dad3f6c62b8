//! EnGarde's pluggable policy-module framework (§3).
//!
//! "EnGarde checks policies using pluggable policy modules. Each policy
//! module checks compliance for a specific property, and specific policy
//! modules that are loaded during enclave creation depend upon the
//! policies that the client and cloud provider have agreed upon."
//!
//! A [`PolicyModule`] inspects the loader's instruction buffer and symbol
//! hash table through a [`PolicyContext`], charging its work to the
//! enclave's cycle counter (policy checking is one of the measured stages
//! in the paper's Figs. 3–5). The module's [`PolicyModule::descriptor`]
//! is folded into the EnGarde bootstrap bytes, so the enclave measurement
//! — which both parties verify via attestation — pins exactly which
//! policies (and which parameters, e.g. which hash database) run.

pub mod ifcc;
pub mod library_linking;
pub mod reachability;
pub mod secret_branch;
pub mod secret_leakage;
pub mod stack_protection;
pub mod wx_segments;

pub use ifcc::IfccPolicy;
pub use library_linking::LibraryLinkingPolicy;
pub use reachability::CodeReachability;
pub use secret_branch::SecretDependentBranch;
pub use secret_leakage::SecretLeakage;
pub use stack_protection::StackProtectionPolicy;
pub use wx_segments::WxSegments;

use crate::analysis::taint::{TaintAnalysis, TaintStats};
use crate::analysis::ProgramAnalysis;
use crate::error::EngardeError;
use crate::loader::LoadedBinary;
use engarde_sgx::perf::CycleCounter;
use std::cell::OnceCell;

/// Memoized home of the shared [`ProgramAnalysis`] for one policy run.
///
/// [`run_policies`] creates one cache per binary and threads it through
/// every policy's [`PolicyContext`]; the first policy that calls
/// [`PolicyContext::analysis`] pays the full analysis cost, later
/// policies read the memo for free — the effect the `ablation_cfg_memo`
/// benchmark quantifies.
#[derive(Default)]
pub struct AnalysisCache {
    memo: OnceCell<(ProgramAnalysis, u64)>,
    taint_memo: OnceCell<(TaintAnalysis, u64)>,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The analysis for `binary`, computing it on first use. Returns
    /// the cycles to charge *this* call: the full analysis cost on a
    /// miss, zero on a hit.
    fn get_or_compute(&self, binary: &LoadedBinary) -> (&ProgramAnalysis, u64) {
        let mut charged = 0;
        let (analysis, _) = self.memo.get_or_init(|| {
            let (analysis, cost) = ProgramAnalysis::compute(binary);
            charged = cost;
            (analysis, cost)
        });
        (analysis, charged)
    }

    /// The interprocedural taint analysis for `binary` (over the
    /// binary's own secret ranges), computing it — and the base
    /// analysis, if needed — on first use. Returns the cycles to charge
    /// *this* call.
    fn get_or_compute_taint(&self, binary: &LoadedBinary) -> (&TaintAnalysis, u64) {
        let (analysis, mut charged) = self.get_or_compute(binary);
        let (taint, _) = self.taint_memo.get_or_init(|| {
            let (taint, cost) = TaintAnalysis::compute(binary, analysis, &binary.secret_ranges);
            charged += cost;
            (taint, cost)
        });
        (taint, charged)
    }

    /// Verdict-level taint counters, if the taint pass ran under this
    /// cache. Provisioning reads these after the policy run — even a
    /// rejecting one — to surface analysis cost in its outcome.
    pub fn taint_stats(&self) -> Option<TaintStats> {
        self.taint_memo.get().map(|(t, cost)| t.stats(*cost))
    }
}

/// What a policy module sees: the loaded binary, the shared analysis
/// engine, and a cycle meter.
pub struct PolicyContext<'a> {
    binary: &'a LoadedBinary,
    counter: &'a mut CycleCounter,
    analysis: &'a AnalysisCache,
}

impl<'a> PolicyContext<'a> {
    /// Creates a context over a loaded binary with a (typically shared)
    /// analysis cache.
    pub fn new(
        binary: &'a LoadedBinary,
        counter: &'a mut CycleCounter,
        analysis: &'a AnalysisCache,
    ) -> Self {
        PolicyContext {
            binary,
            counter,
            analysis,
        }
    }

    /// The loaded binary under inspection. The returned reference is
    /// tied to the binary's own lifetime, so it can be held across
    /// [`PolicyContext::charge`] calls.
    pub fn binary(&self) -> &'a LoadedBinary {
        self.binary
    }

    /// The shared program analysis, computed lazily on first use. The
    /// full analysis cost is charged to whichever policy calls this
    /// first; subsequent calls (by any policy sharing the cache) are
    /// free.
    pub fn analysis(&mut self) -> &'a ProgramAnalysis {
        let (analysis, cycles) = self.analysis.get_or_compute(self.binary);
        self.counter.charge_native(cycles);
        analysis
    }

    /// The shared interprocedural taint analysis (over the loader's
    /// secret ranges), computed lazily on first use; the base analysis
    /// is computed too if no policy has touched it yet. Charging
    /// follows the same memo discipline as [`PolicyContext::analysis`].
    pub fn taint(&mut self) -> &'a TaintAnalysis {
        let (taint, cycles) = self.analysis.get_or_compute_taint(self.binary);
        self.counter.charge_native(cycles);
        taint
    }

    /// Charges `cycles` of native policy work.
    pub fn charge(&mut self, cycles: u64) {
        self.counter.charge_native(cycles);
    }

    /// Raw text bytes for `[start, end)` virtual addresses.
    ///
    /// # Errors
    ///
    /// Returns [`EngardeError::TextRangeOutOfBounds`] when the range
    /// lies outside the text — a hostile symbol table must reject the
    /// binary, never panic the inspector.
    pub fn text_range(&self, start: u64, end: u64) -> Result<&'a [u8], EngardeError> {
        let base = self.binary.text_base();
        let out_of_bounds = EngardeError::TextRangeOutOfBounds { start, end };
        if start < base || start > end {
            return Err(out_of_bounds);
        }
        self.binary
            .text()
            .get((start - base) as usize..(end - base) as usize)
            .ok_or(out_of_bounds)
    }

    /// End of the text (exclusive virtual address).
    pub fn text_end(&self) -> u64 {
        self.binary.text_end()
    }

    /// Index of the instruction starting at `addr`, if any (one probe
    /// of the loader's [`LoadedBinary::index`]).
    pub fn insn_index_at(&self, addr: u64) -> Option<usize> {
        self.binary.index.get(addr)
    }
}

/// Outcome statistics of one policy module's successful run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyReport {
    /// The policy's name.
    pub policy: &'static str,
    /// How many items (call sites, functions, …) the policy verified.
    pub items_checked: usize,
    /// Free-form detail counters, e.g. hashed functions.
    pub detail: String,
}

/// A pluggable compliance check.
pub trait PolicyModule {
    /// Short kebab-case name (appears in verdicts and violations).
    fn name(&self) -> &'static str;

    /// Whether the policy needs symbol-table information. EnGarde
    /// auto-rejects stripped binaries when any loaded policy requires
    /// symbols (§6).
    fn requires_symbols(&self) -> bool {
        true
    }

    /// Configuration bytes folded into the enclave measurement, binding
    /// the policy's parameters (e.g. the musl hash database) into
    /// attestation.
    fn descriptor(&self) -> Vec<u8>;

    /// Checks the binary, charging work through `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`EngardeError::PolicyViolation`] (or a structural error)
    /// when the binary is non-compliant.
    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError>;
}

/// Runs a set of policy modules in order, rejecting on the first
/// violation (and rejecting stripped binaries when required).
///
/// # Errors
///
/// Propagates the first policy failure.
pub fn run_policies(
    policies: &[Box<dyn PolicyModule>],
    binary: &LoadedBinary,
    counter: &mut CycleCounter,
) -> Result<Vec<PolicyReport>, EngardeError> {
    // One analysis cache per binary: the first policy that needs the
    // CFG pays for it, the rest share the memo.
    let cache = AnalysisCache::new();
    run_policies_with_cache(policies, binary, counter, &cache)
}

/// [`run_policies`] with a caller-owned [`AnalysisCache`], letting the
/// caller read memoized results (e.g. [`AnalysisCache::taint_stats`])
/// after the run — including a rejecting one.
///
/// # Errors
///
/// Propagates the first policy failure.
pub fn run_policies_with_cache(
    policies: &[Box<dyn PolicyModule>],
    binary: &LoadedBinary,
    counter: &mut CycleCounter,
    cache: &AnalysisCache,
) -> Result<Vec<PolicyReport>, EngardeError> {
    let mut reports = Vec::with_capacity(policies.len());
    for policy in policies {
        if policy.requires_symbols() && binary.symbols.is_empty() {
            return Err(EngardeError::StrippedBinary);
        }
        let mut ctx = PolicyContext::new(binary, counter, cache);
        reports.push(policy.check(&mut ctx)?);
    }
    Ok(reports)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::loader::{load, LoaderConfig};
    use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
    use engarde_sgx::instr::SgxVersion;
    use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};

    /// Builds a small machine with an entered enclave and loads `image`.
    pub fn load_image(image: &[u8]) -> (SgxMachine, EnclaveId, LoadedBinary) {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 64,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 77,
        });
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
            .expect("eadd");
        m.eextend(id, 0x10000).expect("eextend");
        m.einit(id).expect("einit");
        m.eenter(id).expect("enter");
        let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("loads");
        (m, id, loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_workloads::generator::{generate, WorkloadSpec};

    struct AlwaysPass;
    impl PolicyModule for AlwaysPass {
        fn name(&self) -> &'static str {
            "always-pass"
        }
        fn descriptor(&self) -> Vec<u8> {
            b"pass".to_vec()
        }
        fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
            ctx.charge(1);
            Ok(PolicyReport {
                policy: "always-pass",
                items_checked: ctx.binary().insns.len(),
                detail: String::new(),
            })
        }
    }

    struct AlwaysFail;
    impl PolicyModule for AlwaysFail {
        fn name(&self) -> &'static str {
            "always-fail"
        }
        fn descriptor(&self) -> Vec<u8> {
            b"fail".to_vec()
        }
        fn check(&self, _ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
            Err(EngardeError::PolicyViolation {
                policy: "always-fail",
                reason: "unconditional".into(),
            })
        }
    }

    #[test]
    fn policies_run_in_order_and_stop_at_first_failure() {
        let image = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        })
        .image;
        let (mut m, _, loaded) = test_support::load_image(&image);
        let ok: Vec<Box<dyn PolicyModule>> = vec![Box::new(AlwaysPass), Box::new(AlwaysPass)];
        let reports = run_policies(&ok, &loaded, m.counter_mut()).expect("both pass");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].items_checked, 6_000);

        let bad: Vec<Box<dyn PolicyModule>> = vec![Box::new(AlwaysPass), Box::new(AlwaysFail)];
        let err = run_policies(&bad, &loaded, m.counter_mut()).unwrap_err();
        assert!(matches!(err, EngardeError::PolicyViolation { .. }));
    }

    #[test]
    fn stripped_binary_auto_rejected_when_symbols_required() {
        use engarde_elf::build::ElfBuilder;
        let image = ElfBuilder::new().text(vec![0xc3]).strip().build();
        let (mut m, _, loaded) = test_support::load_image(&image);
        let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(AlwaysPass)];
        let err = run_policies(&policies, &loaded, m.counter_mut()).unwrap_err();
        assert!(matches!(err, EngardeError::StrippedBinary));
    }

    #[test]
    fn context_text_range_and_index() {
        let image = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        })
        .image;
        let (mut m, _, loaded) = test_support::load_image(&image);
        let cache = AnalysisCache::new();
        let mut ctx = PolicyContext::new(&loaded, m.counter_mut(), &cache);
        let first = ctx.binary().insns[0];
        assert_eq!(ctx.insn_index_at(first.addr), Some(0));
        // Mid-instruction addresses are not boundaries.
        let (i, multi) = ctx
            .binary()
            .insns
            .iter()
            .enumerate()
            .find(|(_, x)| x.len > 1)
            .map(|(i, x)| (i, *x))
            .expect("some multi-byte instruction");
        assert_eq!(ctx.insn_index_at(multi.addr), Some(i));
        assert_eq!(ctx.insn_index_at(multi.addr + 1), None);
        let bytes = ctx.text_range(first.addr, first.end()).expect("in range");
        assert_eq!(bytes.len(), first.len as usize);
        assert!(ctx.text_end() > first.addr);
        ctx.charge(5);
    }

    #[test]
    fn text_range_rejects_out_of_bounds_instead_of_panicking() {
        let image = generate(&WorkloadSpec {
            target_instructions: 2_000,
            ..WorkloadSpec::default()
        })
        .image;
        let (mut m, _, loaded) = test_support::load_image(&image);
        let cache = AnalysisCache::new();
        let ctx = PolicyContext::new(&loaded, m.counter_mut(), &cache);
        let base = loaded.text_base();
        let end = ctx.text_end();
        // Below the text base, past the end, inverted, and wrapping
        // ranges all come back as structured errors.
        for (s, e) in [(0, 8), (base, end + 1), (end, base), (u64::MAX - 4, 4)] {
            assert!(
                matches!(
                    ctx.text_range(s, e),
                    Err(EngardeError::TextRangeOutOfBounds { .. })
                ),
                "range {s:#x}..{e:#x} must be rejected"
            );
        }
        assert!(ctx.text_range(base, end).is_ok());
    }

    #[test]
    fn analysis_cost_is_charged_once_per_cache() {
        let image = generate(&WorkloadSpec {
            target_instructions: 2_000,
            ..WorkloadSpec::default()
        })
        .image;
        let (mut m, _, loaded) = test_support::load_image(&image);
        let cache = AnalysisCache::new();

        let before = m.counter().native_cycles();
        let mut ctx = PolicyContext::new(&loaded, m.counter_mut(), &cache);
        ctx.analysis();
        let first_cost = m.counter().native_cycles() - before;
        assert!(first_cost > 0, "first use pays for the analysis");

        let before = m.counter().native_cycles();
        let mut ctx = PolicyContext::new(&loaded, m.counter_mut(), &cache);
        ctx.analysis();
        assert_eq!(
            m.counter().native_cycles() - before,
            0,
            "second use hits the memo"
        );

        // A fresh cache pays again (per-binary scoping).
        let fresh = AnalysisCache::new();
        let before = m.counter().native_cycles();
        let mut ctx = PolicyContext::new(&loaded, m.counter_mut(), &fresh);
        ctx.analysis();
        assert_eq!(m.counter().native_cycles() - before, first_cost);
    }
}
