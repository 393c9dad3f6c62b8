//! The traced run: per-layer metrics.
//!
//! A traced pass drives the same session list on one thread through
//! the public functions of each layer — `CloudProvider::{create_engarde_enclave,
//! attest, open_channel, deliver, inspect_and_provision}` and
//! `Client::{verify_quote, establish_channel, content_blocks,
//! verify_verdict}` — with a span around every call. It runs each
//! shard's sessions on that shard's own provider, in the shard's
//! order, so its per-session model cycles and signed verdicts must
//! reproduce the untraced laps' work digest exactly; a mismatch means
//! the measured work was not seed-determined and fails the run.
//!
//! Two calls are split by replaying their stages outside the session:
//! enclave creation into key generation (`RsaKeyPair::generate` on the
//! provider's own draws; the replayed key must equal the attested one)
//! and the EPC build (`HostOs::add_page` for every page), and
//! inspection into decode (`loader::load`), analysis
//! (`ProgramAnalysis::compute` through a shared `AnalysisCache`), each
//! policy module (`run_policies_with_cache`, one module at a time, so
//! taint is charged to the first taint-backed module) and relocation
//! (`relocate::map_and_relocate`), on a side enclave of the same
//! geometry. A cache hit replays only what a hit does: relocation.
//!
//! Spans stay in memory and are written to the work directory at exit.

use crate::fleet::{self, CACHE_CAPACITY};
use crate::run::{self, fresh_dir, Metric, RunArgs, RunOutput, Tally, WarmStore};
use crate::sessions::{lap_inputs, request_for, SessionInput, SHARDS};
use crate::stats;
use engarde_core::analysis::{SecretClass, SecretRange};
use engarde_core::cache::{lock_cache, shared_cache, CacheKey};
use engarde_core::client::Client;
use engarde_core::loader::load;
use engarde_core::policy::{run_policies_with_cache, AnalysisCache, PolicyContext};
use engarde_core::provider::CloudProvider;
use engarde_core::provision::{BootstrapSpec, StageCycles, DEFAULT_ENCLAVE_BASE};
use engarde_core::relocate::map_and_relocate;
use engarde_crypto::rsa::RsaKeyPair;
use engarde_crypto::sha256::Sha256;
use engarde_elf::parse::ElfFile;
use engarde_rand::{SeedableRng, StdRng};
use engarde_serve::pool::{SessionOutcome, SessionReport};
use engarde_serve::regimes;
use engarde_serve::session::SessionRequest;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::host::HostOs;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_store::{StoreOptions, VerdictStore};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `CloudProvider::new` seeds its key-generation RNG with the machine
/// seed XOR this tag; the keygen replay draws from the same stream.
const PROVIDER_RNG_TAG: u64 = 0x00F0_0D5E;

/// Share of a traced run's seconds spent on untraced laps (the
/// overhead baseline and the idle fraction); the rest goes to traced
/// passes.
const UNTRACED_SHARE: f64 = 0.25;

/// The seven policy modules, in metric order.
pub const POLICY_MODULES: [&str; 7] = [
    "library-linking",
    "stack-protection",
    "indirect-function-call",
    "code-reachability",
    "wx-segments",
    "secret-leakage",
    "secret-dependent-branch",
];

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `deliver` or `policy.secret-leakage`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Session index, for spans that belong to one session.
    pub session: Option<usize>,
    /// Work counted at the same boundary (bytes, pages, instructions,
    /// relocations, records), where the layer has one.
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    sessions: usize,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            sessions: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, session: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
            session,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` with its work count.
    pub fn close(&mut self, id: usize, count: u64) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
            span.count = count;
        }
    }

    /// A fresh session identifier.
    pub fn next_session(&mut self) -> usize {
        self.sessions += 1;
        self.sessions - 1
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summed duration and count of every span named `name` from index
    /// `from` on.
    pub fn totals(&self, name: &str, from: usize) -> (u64, u64) {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, c), s| (t + s.nanos(), c + s.count))
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"session\": {}, \"count\": {}}}{}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent),
                opt(span.session),
                span.count,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        s
    }
}

/// What one traced pass produced besides its spans.
pub struct Pass {
    /// Index of the pass's first span.
    pub first_span: usize,
    /// Sessions driven.
    pub sessions: usize,
    /// Per-session traced time, ms.
    pub session_ms: Vec<f64>,
    /// Summed model cycles per stage.
    pub stages: StageCycles,
    /// Sessions answered from the verdict cache.
    pub cache_hits: usize,
    /// Sessions without their expected, client-verified verdict.
    pub failed: usize,
    /// The work digest ([`fleet::work_digest`]) the untraced laps must
    /// match.
    pub work_digest: String,
}

/// Runs one traced pass of `inputs` against a store at `store_dir`.
/// Gate failures are pushed to `problems`; protocol errors abort.
pub fn traced_pass(
    inputs: &[SessionInput],
    store_dir: &Path,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let first_span = tr.spans.len();
    let musl = Arc::new(regimes::musl_hashes());
    let requests: Vec<SessionRequest> = inputs.iter().map(|s| request_for(s, &musl)).collect();
    let machine = fleet::machine();
    let store_cfg = fleet::store_config(store_dir);
    let cache = shared_cache(CACHE_CAPACITY);

    let span = tr.open("store.hydrate", None, None);
    let (mut store, _) = VerdictStore::open(
        store_dir,
        &store_cfg.seal_key,
        StoreOptions {
            segment_max_records: store_cfg.segment_max_records,
            compact_live_per_mille: store_cfg.compact_live_per_mille,
        },
    )
    .map_err(|e| format!("open store: {e}"))?;
    let hydrated = {
        let mut c = lock_cache(&cache);
        c.track_dirty();
        store.hydrate_into(&mut c)
    };
    tr.close(span, hydrated as u64);

    let mut providers: Vec<CloudProvider> = (0..SHARDS)
        .map(|i| {
            let mut p = CloudProvider::new(machine.shard(i));
            p.set_verdict_cache(cache.clone());
            p
        })
        .collect();
    let mut key_rngs: Vec<StdRng> = (0..SHARDS)
        .map(|i| StdRng::seed_from_u64(machine.shard(i).seed ^ PROVIDER_RNG_TAG))
        .collect();
    let mut side = HostOs::new(SgxMachine::new(MachineConfig {
        seed: machine.seed ^ 0x51DE,
        ..machine.clone()
    }));

    let mut pass = Pass {
        first_span,
        sessions: inputs.len(),
        session_ms: Vec::with_capacity(inputs.len()),
        stages: StageCycles::default(),
        cache_hits: 0,
        failed: 0,
        work_digest: String::new(),
    };
    let mut reports = Vec::with_capacity(inputs.len());
    for (input, req) in inputs.iter().zip(&requests) {
        let sid = Some(tr.next_session());
        let p = &mut providers[input.shard];
        let cycles0 = p.host().machine().counter().total_cycles();
        let cache_key =
            CacheKey::derive(&req.spec.to_bootstrap_bytes(), &Sha256::digest(&req.binary));

        let sess = tr.open("session", None, sid);
        let parent = Some(sess);
        let s = tr.open("create", parent, sid);
        let id = p
            .create_engarde_enclave(req.spec.clone(), (req.policies)())
            .map_err(|e| format!("{}: create: {e}", req.name))?;
        tr.close(s, 0);
        let mut client = Client::new(
            req.binary.clone(),
            &req.spec,
            DEFAULT_ENCLAVE_BASE,
            p.device_public_key(),
            req.client_seed,
        );
        let nonce = client.challenge();
        let s = tr.open("attest", parent, sid);
        let quote = p
            .attest(id, nonce)
            .map_err(|e| format!("{}: attest: {e}", req.name))?;
        tr.close(s, 0);
        let key = p.enclave_public_key(id).map_err(|e| e.to_string())?;
        let s = tr.open("verify_quote", parent, sid);
        client
            .verify_quote(&quote, &key)
            .map_err(|e| format!("{}: quote: {e}", req.name))?;
        tr.close(s, 0);
        let s = tr.open("channel_open", parent, sid);
        let wrapped = client
            .establish_channel(&key)
            .map_err(|e| format!("{}: channel: {e}", req.name))?;
        p.open_channel(id, &wrapped)
            .map_err(|e| format!("{}: channel: {e}", req.name))?;
        tr.close(s, 0);
        let s = tr.open("client_seal", parent, sid);
        let blocks = client.content_blocks().map_err(|e| e.to_string())?;
        tr.close(s, blocks.len() as u64);
        let bytes: usize = blocks.iter().map(|b| b.ciphertext.len()).sum();
        let s = tr.open("deliver", parent, sid);
        for block in &blocks {
            p.deliver(id, block)
                .map_err(|e| format!("{}: deliver: {e}", req.name))?;
        }
        tr.close(s, bytes as u64);
        // The probe inspection is about to make, observed from outside.
        let s = tr.open("cache_lookup", parent, sid);
        let probe_hit = lock_cache(&cache).lookup(&cache_key).is_some();
        tr.close(s, 1);
        let s = tr.open("inspect", parent, sid);
        let view = p
            .inspect_and_provision(id)
            .map_err(|e| format!("{}: inspect: {e}", req.name))?;
        tr.close(s, view.instructions as u64);
        let verdict = p
            .signed_verdict(id)
            .cloned()
            .ok_or_else(|| format!("{}: no signed verdict", req.name))?;
        let s = tr.open("verify_verdict", parent, sid);
        let client_verified =
            matches!(client.verify_verdict(&verdict, &key), Ok(v) if v == view.compliant);
        tr.close(s, 0);
        let s = tr.open("close", parent, sid);
        p.close_session(id).map_err(|e| e.to_string())?;
        tr.close(s, 0);
        tr.close(sess, 0);

        let cycles = p.host().machine().counter().total_cycles() - cycles0;
        pass.session_ms.push(tr.spans[sess].nanos() as f64 / 1e6);
        add_stages(&mut pass.stages, &view.stages);
        pass.cache_hits += usize::from(view.cache_hit);
        if probe_hit != view.cache_hit {
            problems.push(format!(
                "{}: probe and inspection disagree on the cache",
                req.name
            ));
        }
        let report = SessionReport {
            name: req.name.clone(),
            shard: input.shard,
            outcome: if view.compliant {
                SessionOutcome::Compliant
            } else {
                SessionOutcome::NonCompliant
            },
            stages: view.stages,
            cycles,
            latency_cycles: cycles,
            wall_nanos: tr.spans[sess].nanos(),
            retries: 0,
            blocks_delivered: blocks.len(),
            enclave_key_fp: None,
            measurement: None,
            verdict: Some(verdict),
            client_verified,
            instructions: view.instructions,
            cache_hit: view.cache_hit,
        };
        if !fleet::report_ok(&report, input.expected) {
            pass.failed += 1;
            problems.push(format!("{}: traced verdict {:?}", req.name, report.outcome));
        }
        reports.push(report);

        // ---- stage replays, outside the session span -------------------
        let rep = tr.open("replay", None, sid);
        let parent = Some(rep);
        let s = tr.open("keygen", parent, sid);
        let keypair = RsaKeyPair::generate(&mut key_rngs[input.shard], req.spec.rsa_bits);
        tr.close(s, 1);
        if keypair.public() != &key {
            return Err(format!(
                "{}: the keygen replay drew a different key than the provider",
                req.name
            ));
        }
        let s = tr.open("epc_build", parent, sid);
        let (side_id, pages) = build_side_enclave(&mut side, &req.spec)?;
        tr.close(s, pages);
        replay_inspection(
            tr,
            parent,
            sid,
            &mut side,
            side_id,
            req,
            view.cache_hit,
            view.compliant,
        )?;
        side.destroy_enclave(side_id).map_err(|e| e.to_string())?;
        tr.close(rep, 0);
    }

    let dirty = lock_cache(&cache).take_dirty();
    if !dirty.is_empty() {
        let s = tr.open("store.flush", None, None);
        store
            .append_batch(&dirty)
            .map_err(|e| format!("store flush: {e}"))?;
        tr.close(s, dirty.len() as u64);
    }

    pass.work_digest = fleet::work_digest(&reports);
    Ok(pass)
}

fn add_stages(sum: &mut StageCycles, s: &StageCycles) {
    sum.receive_decrypt += s.receive_decrypt;
    sum.disassembly += s.disassembly;
    sum.policy_checking += s.policy_checking;
    sum.loading_relocation += s.loading_relocation;
}

/// Builds an enclave of `spec`'s geometry on the side host the way
/// `create_engarde_enclave` does — every bootstrap and client-region
/// page through `HostOs::add_page` — and returns it with its page count.
fn build_side_enclave(host: &mut HostOs, spec: &BootstrapSpec) -> Result<(EnclaveId, u64), String> {
    let base = DEFAULT_ENCLAVE_BASE;
    let err = |e: engarde_sgx::SgxError| format!("side enclave: {e}");
    let id = host
        .create_enclave(base, spec.enclave_size())
        .map_err(err)?;
    let bytes = spec.to_bootstrap_bytes();
    let mut chunks: Vec<&[u8]> = bytes.chunks(PAGE_SIZE).collect();
    chunks.resize(chunks.len().max(spec.bootstrap_pages()), &[]);
    for (i, chunk) in chunks.iter().enumerate() {
        host.add_page(id, base + (i * PAGE_SIZE) as u64, chunk, PagePerms::RX)
            .map_err(err)?;
    }
    let region_base = spec.client_region_base(base);
    for p in 0..spec.client_region_pages {
        host.add_page(
            id,
            region_base + (p * PAGE_SIZE) as u64,
            &[],
            PagePerms::RWX,
        )
        .map_err(err)?;
    }
    host.machine_mut().einit(id).map_err(err)?;
    host.machine_mut().eenter(id).map_err(err)?;
    Ok((id, (chunks.len() + spec.client_region_pages) as u64))
}

/// Replays the inspection stages the session's real inspection ran: on
/// a miss decode, analysis, every policy and (if all pass) relocation;
/// on a hit relocation alone (and nothing for a cached rejection).
#[allow(clippy::too_many_arguments)]
fn replay_inspection(
    tr: &mut Tracer,
    parent: Option<usize>,
    sid: Option<usize>,
    side: &mut HostOs,
    side_id: EnclaveId,
    req: &SessionRequest,
    cache_hit: bool,
    compliant: bool,
) -> Result<(), String> {
    let spec = &req.spec;
    let region_base = spec.client_region_base(DEFAULT_ENCLAVE_BASE);
    let relocate = |tr: &mut Tracer, side: &mut HostOs, elf: &ElfFile, image: &[u8]| {
        let s = tr.open("relocate", parent, sid);
        let mapping = map_and_relocate(
            side.machine_mut(),
            side_id,
            elf,
            image,
            region_base,
            spec.client_region_pages,
        )
        .map_err(|e| format!("{}: relocate replay: {e}", req.name))?;
        tr.close(s, mapping.relocations_applied as u64);
        Ok::<(), String>(())
    };
    if cache_hit {
        if compliant {
            let elf = ElfFile::parse(&req.binary).map_err(|e| e.to_string())?;
            relocate(tr, side, &elf, &req.binary)?;
        }
        return Ok(());
    }
    let s = tr.open("decode", parent, sid);
    let mut loaded = load(side.machine_mut(), side_id, &req.binary, &spec.loader)
        .map_err(|e| format!("{}: decode replay: {e}", req.name))?;
    tr.close(s, loaded.insns.len() as u64);
    loaded.secret_ranges.push(SecretRange {
        start: region_base,
        end: region_base + (spec.client_region_pages * PAGE_SIZE) as u64,
        class: SecretClass::DecryptedContent,
    });
    let analysis = AnalysisCache::new();
    let s = tr.open("analysis", parent, sid);
    PolicyContext::new(&loaded, side.machine_mut().counter_mut(), &analysis).analysis();
    tr.close(s, 0);
    let mut passed = true;
    for module in (req.policies)() {
        let s = tr.open(&format!("policy.{}", module.name()), parent, sid);
        let verdict = run_policies_with_cache(
            std::slice::from_ref(&module),
            &loaded,
            side.machine_mut().counter_mut(),
            &analysis,
        );
        tr.close(s, 0);
        passed &= verdict.is_ok();
    }
    if passed != compliant {
        return Err(format!(
            "{}: replayed policies say {passed}, the inspection said {compliant}",
            req.name
        ));
    }
    if passed {
        relocate(tr, side, &loaded.elf, &loaded.raw_image)?;
    }
    Ok(())
}

/// The per-layer metrics of one pass.
pub fn layer_metrics(tr: &Tracer, pass: &Pass) -> Vec<Metric> {
    let n = pass.sessions.max(1) as f64;
    let total = |name: &str| tr.totals(name, pass.first_span);
    let ms_per_session = |name: &str| total(name).0 as f64 / 1e6 / n;
    let ratio = |nanos: u64, count: u64, scale: f64| {
        if count == 0 {
            0.0
        } else {
            nanos as f64 / count as f64 / scale
        }
    };
    let (build_ns, pages) = total("epc_build");
    let (deliver_ns, bytes) = total("deliver");
    let (decode_ns, insns) = total("decode");
    let (reloc_ns, relocs) = total("relocate");
    let (lookup_ns, lookups) = total("cache_lookup");
    let (hydrate_ns, _) = total("store.hydrate");
    let (flush_ns, records) = total("store.flush");
    let (channel_ns, _) = total("channel_open");
    let analysis_ns = total("analysis").0;
    let policy_ns: u64 = POLICY_MODULES
        .iter()
        .map(|m| total(&format!("policy.{m}")).0)
        .sum();

    let mut m = vec![
        Metric::new("crypto.keygen_ms", ms_per_session("keygen"), "ms"),
        Metric::new("crypto.channel_open_ms", channel_ns as f64 / 1e6 / n, "ms"),
        Metric::new("crypto.client_seal_ms", ms_per_session("client_seal"), "ms"),
        Metric::new("sgx.enclave_build_ms", build_ns as f64 / 1e6 / n, "ms"),
        Metric::new("sgx.build_us_per_page", ratio(build_ns, pages, 1e3), "us"),
        Metric::new("sgx.attest_ms", ms_per_session("attest"), "ms"),
        Metric::new("core.deliver_ms", deliver_ns as f64 / 1e6 / n, "ms"),
        Metric::new(
            "core.deliver_ns_per_byte",
            ratio(deliver_ns, bytes, 1.0),
            "ns",
        ),
        Metric::new("x86.decode_ms", decode_ns as f64 / 1e6 / n, "ms"),
        Metric::new("x86.decode_ns_per_insn", ratio(decode_ns, insns, 1.0), "ns"),
        Metric::new("core.analysis_ms", analysis_ns as f64 / 1e6 / n, "ms"),
    ];
    for module in POLICY_MODULES {
        m.push(Metric::new(
            format!("core.policy.{}_ms", module.replace('-', "_")),
            ms_per_session(&format!("policy.{module}")),
            "ms",
        ));
    }
    m.extend([
        Metric::new("core.relocate_ms", reloc_ns as f64 / 1e6 / n, "ms"),
        Metric::new(
            "core.relocate_us_per_reloc",
            ratio(reloc_ns, relocs, 1e3),
            "us",
        ),
        Metric::new("cache.hit_ratio", pass.cache_hits as f64 / n, "fraction"),
        Metric::new("cache.lookup_us", ratio(lookup_ns, lookups, 1e3), "us"),
        Metric::new("store.hydrate_ms", hydrate_ns as f64 / 1e6, "ms"),
        Metric::new(
            "store.flush_us_per_record",
            ratio(flush_ns, records, 1e3),
            "us",
        ),
    ]);
    let st = &pass.stages;
    let stage_wall = [
        ("receive_decrypt", st.receive_decrypt, deliver_ns),
        ("disassembly", st.disassembly, decode_ns + lookup_ns),
        (
            "policy_checking",
            st.policy_checking,
            analysis_ns + policy_ns,
        ),
        ("loading_relocation", st.loading_relocation, reloc_ns),
    ];
    for (stage, cycles, _) in stage_wall {
        m.push(Metric::new(
            format!("model.{stage}_cycles"),
            cycles as f64 / n,
            "cycles",
        ));
    }
    for (stage, cycles, wall) in stage_wall {
        m.push(Metric::new(
            format!("model.{stage}_wall_ns_per_cycle"),
            ratio(wall, cycles, 1.0),
            "ns/cycle",
        ));
    }
    m
}

/// Where each session's traced time went: the self time of every call
/// inside the session span, and the replayed split of creation and
/// inspection, as shares of summed session time.
pub fn layer_shares(tr: &Tracer, pass: &Pass) -> Vec<String> {
    let session_ns = tr.totals("session", pass.first_span).0.max(1) as f64;
    let share = |name: &str| 100.0 * tr.totals(name, pass.first_span).0 as f64 / session_ns;
    let mut lines = vec![format!(
        "layer shares of {} traced sessions ({:.1} ms summed):",
        pass.sessions,
        session_ns / 1e6
    )];
    for name in [
        "create",
        "attest",
        "verify_quote",
        "channel_open",
        "client_seal",
        "deliver",
        "cache_lookup",
        "inspect",
        "verify_verdict",
        "close",
    ] {
        lines.push(format!("  {name:<16} {:6.2}%", share(name)));
    }
    lines.push("  replayed stages (same base):".into());
    let mut replays = vec!["keygen", "epc_build", "decode", "analysis"];
    let policies: Vec<String> = POLICY_MODULES
        .iter()
        .map(|m| format!("policy.{m}"))
        .collect();
    replays.extend(policies.iter().map(String::as_str));
    replays.push("relocate");
    for name in replays {
        lines.push(format!("    {name:<30} {:6.2}%", share(name)));
    }
    lines
}

/// The traced run: untraced laps of the lap-0 session list (the
/// overhead baseline and the worker idle fraction), then traced passes
/// of the same list until `seconds` are used.
pub fn run_traced(
    args: &RunArgs,
    warm: Option<&WarmStore>,
    out: &mut RunOutput,
) -> Result<(), String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let laps = run::laps_for(args.workload, args.seconds * UNTRACED_SHARE, 1);
    run::run_laps(args, warm, laps, true, &mut tally)?;
    let mut problems = std::mem::take(&mut tally.problems);
    let untraced_digest = tally.work_digests[0].clone();
    if let Err(e) = run::check_fingerprints(args, &tally.fingerprints[..1]) {
        problems.push(e);
    }
    if tally
        .fingerprints
        .iter()
        .any(|f| *f != tally.fingerprints[0])
    {
        problems.push("laps of one session list fingerprinted differently".into());
    }

    let inputs = lap_inputs(args.workload, args.seed, 0);
    let mut tr = Tracer::default();
    let mut per_pass: Vec<Vec<Metric>> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut shares = Vec::new();
    let mut traced_failed = 0;
    // Another pass only if it should finish within `seconds`.
    let mut pass_s = 0.0;
    while per_pass.is_empty() || start.elapsed().as_secs_f64() + pass_s <= args.seconds {
        let pass_start = Instant::now();
        let pass = match warm {
            Some(ws) => traced_pass(&inputs, &ws.dir, &mut tr, &mut problems)?,
            None => {
                let dir = fresh_dir("trace-store")?;
                let pass = traced_pass(&inputs, &dir, &mut tr, &mut problems);
                let _ = std::fs::remove_dir_all(&dir);
                pass?
            }
        };
        if pass.work_digest != untraced_digest {
            problems.push(format!(
                "determinism guard: the traced pass did work {}, the untraced laps {untraced_digest}",
                pass.work_digest
            ));
        }
        if shares.is_empty() {
            shares = layer_shares(&tr, &pass);
        }
        pass_s = pass_start.elapsed().as_secs_f64();
        traced_failed += pass.failed;
        per_pass.push(layer_metrics(&tr, &pass));
        traced_ms.extend(&pass.session_ms);
    }

    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let traced_p50 = med(&traced_ms);
    let untraced_p50 = med(&tally.raw_session_ms);
    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            Metric::new(m.name.clone(), med(&values), m.unit)
        })
        .collect();
    metrics.push(Metric::new(
        "serve.worker_idle_frac",
        med(&tally.idle_frac),
        "fraction",
    ));
    metrics.push(Metric::new("trace.session_p50_ms", traced_p50, "ms"));
    metrics.push(Metric::new(
        "trace.overhead_ms",
        traced_p50 - untraced_p50,
        "ms",
    ));

    let spans_path =
        run::work_dir().join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    run::write_file(&spans_path, &tr.to_json())?;
    out.notes.push(format!(
        "{}: {} untraced laps, {} traced passes, {:.1} s; spans written to {}",
        args.workload.name(),
        tally.fingerprints.len(),
        per_pass.len(),
        start.elapsed().as_secs_f64(),
        spans_path.display()
    ));
    out.notes.push(format!(
        "traced session p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms, both as measured on one thread"
    ));
    out.notes.extend(shares);
    out.attempted = tally.attempted + per_pass.len() * inputs.len();
    out.failed = tally.failed + traced_failed;
    out.notes
        .extend(problems.iter().take(20).map(|p| format!("FAIL {p}")));
    out.correct = problems.is_empty() && out.failed == 0;
    out.metrics = metrics;
    Ok(())
}
