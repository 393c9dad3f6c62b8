//! Workload definitions: the session list each lap submits, as a pure
//! function of the workload, the command-line seed and the lap index.

use engarde_core::loader::LoaderConfig;
use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_crypto::sha256::Digest;
use engarde_serve::regimes;
use engarde_serve::session::{PolicyFactory, SessionRequest};
use engarde_sgx::epc::PAGE_SIZE;
use engarde_workloads::adversarial;
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::traffic::PolicyRegime;
use std::collections::HashMap;
use std::sync::Arc;

/// Shards (provider machines) every workload runs on. The virtual-time
/// backend runs them all on the measuring thread.
pub const SHARDS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The 21 full-size paper binaries plus the leaking fixtures and
    /// their twins; fresh content every lap, so every lookup misses.
    PaperCold,
    /// The same session list replayed against a store-hydrated fleet:
    /// every session is a cache hit.
    PaperWarm,
    /// Small scaled paper binaries under 1024-bit enclave keys.
    Keys1024,
}

impl Workload {
    /// Every workload, in the order the steadiness mode alternates them.
    pub const ALL: [Workload; 3] = [Workload::PaperCold, Workload::PaperWarm, Workload::Keys1024];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper-cold",
            Workload::PaperWarm => "paper-warm",
            Workload::Keys1024 => "keys-1024",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured seconds one lap takes at the reference speed (see
    /// [`crate::calib`]), which sets how many laps fill a run.
    pub fn nominal_lap_s(self) -> f64 {
        match self {
            Workload::PaperCold => 6.9,
            Workload::PaperWarm => 5.8,
            Workload::Keys1024 => 2.0,
        }
    }

    /// The generator seed of lap `lap`. Warm laps replay lap 0's list.
    pub fn lap_seed(self, seed: u64, lap: u64) -> u64 {
        match self {
            Workload::PaperWarm => derive_seed(seed, 0),
            _ => derive_seed(seed, lap),
        }
    }
}

/// The verdict a correct inspector must sign for a session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expected {
    /// A compliant (PASS) verdict.
    Compliant,
    /// A rejection.
    Rejected,
}

/// One generated session: the client's input plus the agreed policies.
#[derive(Clone, Debug)]
pub struct SessionInput {
    /// Unique session name within the lap.
    pub name: String,
    /// The client's ELF image.
    pub image: Vec<u8>,
    /// `Some`: a paper binary checked under its figure's policy plus
    /// the four analysis policies. `None`: a fixture checked under the
    /// four analysis policies alone.
    pub figure: Option<PolicyFigure>,
    /// The verdict a correct inspector signs.
    pub expected: Expected,
    /// Seed of the client's own randomness.
    pub client_seed: u64,
    /// Enclave key size.
    pub rsa_bits: usize,
    /// Home shard (the request's shard hint).
    pub shard: usize,
}

/// SplitMix64 over `(root, index)`: the per-index sub-seed derivation.
pub fn derive_seed(root: u64, index: u64) -> u64 {
    let mut z = root.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const FIGURES: [PolicyFigure; 3] = [
    PolicyFigure::Fig3LibraryLinking,
    PolicyFigure::Fig4StackProtection,
    PolicyFigure::Fig5Ifcc,
];

/// Sessions per keys-1024 lap, alternating shards. Every lap draws the
/// same keys (the provider seed is fixed), so the median lap's sessions
/// are one key's cost each: an odd count puts the median on one of them
/// instead of between two, and with ten or fewer the tail is the
/// slowest.
const KEYS_SESSIONS: usize = 9;

/// keys-1024 enclave key size. The paper deploys 2048-bit keys, but a
/// 2048-bit key takes 0.4 to 3.2 s to generate here, too long for the
/// host-speed calibration to follow (see the benchmark doc).
const KEYS_RSA_BITS: usize = 1024;

/// keys-1024 binaries: this share of each paper `#Inst` count, floored
/// at the generator's comfortable minimum.
const KEYS_SCALE_PERCENT: usize = 2;
const MIN_SCALED_INSNS: usize = 2_000;

/// The session list of one lap.
pub fn lap_inputs(workload: Workload, seed: u64, lap: u64) -> Vec<SessionInput> {
    let lap_seed = workload.lap_seed(seed, lap);
    let mut out = Vec::new();
    match workload {
        Workload::PaperCold | Workload::PaperWarm => {
            // Largest first, so both shards open on the two biggest
            // binaries.
            let mut papers = paper_sessions(lap_seed, 100, 21, 0);
            papers.sort_by_key(|s| std::cmp::Reverse(s.image.len()));
            let fixtures = fixture_sessions(lap_seed);
            let mut fixtures = fixtures.into_iter();
            for p in papers {
                out.push(p);
                out.extend(fixtures.next());
            }
            out.extend(fixtures);
            assign_by_bytes(&mut out);
        }
        Workload::Keys1024 => {
            out = paper_sessions(lap_seed, KEYS_SCALE_PERCENT, KEYS_SESSIONS, lap as usize);
            for (i, s) in out.iter_mut().enumerate() {
                s.rsa_bits = KEYS_RSA_BITS;
                s.shard = i % SHARDS;
            }
        }
    }
    out
}

/// `count` of the 21 paper binaries (slot = figure * 7 + benchmark),
/// each generated with a fresh seed so every content digest is new. A
/// full lap takes them in order; shorter lists stride by 5 (coprime to
/// 21) from `lap * count`, so consecutive picks span the figures and
/// successive laps cover all 21.
fn paper_sessions(
    lap_seed: u64,
    scale_percent: usize,
    count: usize,
    lap: usize,
) -> Vec<SessionInput> {
    let stride = if count >= 21 { 1 } else { 5 };
    (0..count)
        .map(|i| {
            let slot = ((lap * count + i) * stride) % 21;
            let figure = FIGURES[slot / 7];
            let bench = &PAPER_BENCHMARKS[slot % 7];
            let mut spec: WorkloadSpec = bench.spec(figure);
            if scale_percent < 100 {
                spec.target_instructions =
                    (bench.instructions_for(figure) * scale_percent / 100).max(MIN_SCALED_INSNS);
                spec.avg_app_fn_insns = spec.avg_app_fn_insns.min(spec.target_instructions / 8);
                spec.calls_per_app_fn = spec.calls_per_app_fn.min(64);
                spec.relocation_count = spec.relocation_count.min(256);
            }
            spec.seed = derive_seed(lap_seed ^ 0x0B1A_5EED, i as u64);
            SessionInput {
                name: format!("p{i:02}-{}-fig{}", spec.name, slot / 7 + 3),
                image: generate(&spec).image,
                figure: Some(figure),
                expected: Expected::Compliant,
                client_seed: derive_seed(lap_seed, i as u64),
                rsa_bits: 512,
                shard: 0,
            }
        })
        .collect()
}

/// The seven leaking fixtures and their compliant twins. The secret is
/// the provisioning enclave's channel-key state; sink offsets vary with
/// the lap seed so fixture digests change from lap to lap too.
fn fixture_sessions(lap_seed: u64) -> Vec<SessionInput> {
    let base = DEFAULT_ENCLAVE_BASE;
    let secret = base + 0x100;
    let sink_in = base + 0x800 + 8 * (lap_seed % 32);
    let sink_out = 0x0020_0000 + 8 * ((lap_seed >> 8) % 512);
    let scratch = base + 0x900;
    let ptr = base + 0xa00;
    let pairs: [(&str, Vec<u8>, Vec<u8>); 7] = [
        (
            "register-leak",
            adversarial::secret_register_leak(secret, sink_out),
            adversarial::secret_register_leak(secret, sink_in),
        ),
        (
            "secret-branch",
            adversarial::secret_branch(secret),
            adversarial::constant_branch(),
        ),
        (
            "interprocedural-leak",
            adversarial::interprocedural_leak(secret, sink_out),
            adversarial::interprocedural_leak(secret, sink_in),
        ),
        (
            "stack-spill-leak",
            adversarial::stack_spill_leak(secret, sink_out),
            adversarial::stack_spill_leak(secret, sink_in),
        ),
        (
            "spill-branch",
            adversarial::spill_branch(secret),
            adversarial::constant_spill_branch(),
        ),
        (
            "spill-escape",
            adversarial::interprocedural_spill_escape(secret, scratch, sink_out),
            adversarial::interprocedural_spill_escape(secret, scratch, sink_in),
        ),
        (
            "unresolved-store",
            adversarial::unresolved_pointer_store(secret, ptr),
            adversarial::unresolved_pointer_store_clean(ptr),
        ),
    ];
    let mut out = Vec::with_capacity(14);
    for (i, (name, leak, twin)) in pairs.into_iter().enumerate() {
        for (j, (image, expected, kind)) in [
            (leak, Expected::Rejected, "leak"),
            (twin, Expected::Compliant, "twin"),
        ]
        .into_iter()
        .enumerate()
        {
            let index = 2 * i + j;
            out.push(SessionInput {
                name: format!("f{index:02}-{name}-{kind}"),
                image,
                figure: None,
                expected,
                client_seed: derive_seed(lap_seed ^ 0x0F1C_70E5, index as u64),
                rsa_bits: 512,
                shard: 0,
            });
        }
    }
    out
}

/// Sends each session, in list order, to the shard with the fewest
/// queued image bytes so far (ties to the lower index).
fn assign_by_bytes(sessions: &mut [SessionInput]) {
    let mut load = [0usize; SHARDS];
    for s in sessions {
        let shard = (0..SHARDS).min_by_key(|&w| (load[w], w)).unwrap_or(0);
        load[shard] += s.image.len();
        s.shard = shard;
    }
}

/// The policy modules a session runs under: its figure's regime (if
/// any), then the analysis regime, both as `engarde-serve` maps them.
pub fn policy_factory(
    figure: Option<PolicyFigure>,
    musl: &Arc<HashMap<String, Digest>>,
) -> PolicyFactory {
    let figure = figure.map(|f| {
        regimes::policy_factory(
            match f {
                PolicyFigure::Fig3LibraryLinking => PolicyRegime::LibraryLinking,
                PolicyFigure::Fig4StackProtection => PolicyRegime::StackProtection,
                PolicyFigure::Fig5Ifcc => PolicyRegime::Ifcc,
            },
            musl,
        )
    });
    let analysis = regimes::policy_factory(PolicyRegime::Analysis, musl);
    Arc::new(move || {
        let mut modules = figure.as_ref().map_or_else(Vec::new, |f| f());
        modules.extend(analysis());
        modules
    })
}

/// The submittable request for a session: its client region sized to
/// the image with headroom, its home shard as the shard hint.
pub fn request_for(input: &SessionInput, musl: &Arc<HashMap<String, Digest>>) -> SessionRequest {
    let policies = policy_factory(input.figure, musl);
    let region_pages = (input.image.len() / PAGE_SIZE) * 2 + 64;
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &policies(),
        region_pages,
        input.rsa_bits,
    );
    SessionRequest {
        name: input.name.clone(),
        binary: input.image.clone(),
        spec,
        policies,
        client_seed: input.client_seed,
        stall_after: None,
        shard_hint: Some(input.shard),
    }
}
