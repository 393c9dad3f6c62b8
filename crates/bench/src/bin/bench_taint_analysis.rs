//! Taint-engine cost profile: measures the interprocedural taint pass
//! on call-chain workloads of growing depth, the analysis-memo saving
//! when several taint-backed policies share one [`AnalysisCache`], and
//! the adversarial fixture verdicts, then writes `BENCH_analysis.json`.
//!
//! Three headline numbers:
//!
//! * `scaling[]` — taint cycles, propagation steps, SCC count, and
//!   fixpoint visits per call-graph depth: the pass must grow linearly
//!   in the number of function summaries, not quadratically.
//! * `memo_speedup` — cycles two taint-backed policies pay with the
//!   shared memo versus computing the pass twice from scratch.
//! * `all_fixtures_correct` — every leaking fixture from
//!   `engarde_workloads::adversarial` is rejected and every compliant
//!   near-miss twin passes (asserted, not just reported).
//!
//! All cycle figures come from the deterministic in-enclave cost model,
//! so the output is bit-reproducible for a given seed.
//!
//! ```text
//! bench_taint_analysis [--depths N,N,..] [--filler N] [--seed S] [--out PATH]
//! ```

use engarde_bench::harness::{write_json, Flags};
use engarde_core::analysis::{ProgramAnalysis, TaintAnalysis};
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{run_policies, PolicyModule, SecretDependentBranch, SecretLeakage};
use engarde_elf::build::ElfBuilder;
use engarde_serve::metrics::Json;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_workloads::adversarial;
use engarde_x86::encode::Assembler;
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;

// Direct-harness enclave geometry (matches the core policy tests): the
// enclave spans [0x10000, 0x11000), the loader places the channel-key
// state at base + 0x100.
const SECRET: u64 = 0x10100;
const SINK_OUT: u64 = 0x20000;
const SINK_IN: u64 = 0x10800;

struct Args {
    depths: Vec<usize>,
    filler: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env();
    let args = Args {
        depths: f.list("--depths", vec![2, 4, 8, 16, 32]),
        filler: f.get("--filler", 6),
        seed: f.get("--seed", 0x7A17),
        out: f.get("--out", "BENCH_analysis.json".into()),
    };
    f.finish();
    args
}

/// A depth-`n` call chain: `_start` loads the channel key into `rdi`
/// and calls `f1`; each `fi` shuffles the tainted value through `filler`
/// register moves and calls the next; the last function stores it to an
/// *in-enclave* sink. Compliant by construction, but the taint engine
/// must push the secret through all `n` summaries to prove it.
fn chain_image(n: usize, filler: usize) -> Vec<u8> {
    assert!(n >= 2, "a chain needs _start plus at least one callee");
    let mut asm = Assembler::new();
    let labels: Vec<_> = (0..n).map(|_| asm.label()).collect();
    let mut offsets = Vec::with_capacity(n);
    for (i, label) in labels.iter().enumerate() {
        asm.align_to(BUNDLE_SIZE);
        offsets.push(asm.offset());
        asm.bind(*label);
        if i == 0 {
            asm.movabs(Reg::Rbx, SECRET);
            asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
            asm.mov_rr64(Reg::Rdi, Reg::Rax);
            asm.call_label(labels[1]);
        } else {
            for k in 0..filler {
                if k % 2 == 0 {
                    asm.mov_rr64(Reg::Rsi, Reg::Rdi);
                } else {
                    asm.mov_rr64(Reg::Rdi, Reg::Rsi);
                }
            }
            if i + 1 < n {
                asm.call_label(labels[i + 1]);
            } else {
                asm.movabs(Reg::Rdx, SINK_IN);
                asm.mov_reg_to_mem64(Reg::Rdi, Reg::Rdx);
            }
        }
        asm.ret();
    }
    let text = asm.finish();
    let len = text.len() as u64;
    let mut builder = ElfBuilder::new();
    builder.text(text).entry(0);
    let names: Vec<String> = (0..n)
        .map(|i| {
            if i == 0 {
                "_start".into()
            } else {
                format!("f{i}")
            }
        })
        .collect();
    for (i, &off) in offsets.iter().enumerate() {
        let end = offsets.get(i + 1).copied().unwrap_or(len);
        builder.function(&names[i], off, end - off);
    }
    builder.build()
}

/// The spill-laundering twin of [`chain_image`]: identical chain shape
/// and per-frame instruction count, but every filler move is a
/// spill/reload through a rotating `%rsp` frame slot — each frame
/// touches up to four tracked cells, so the memory-domain overhead is
/// directly comparable against the register-only chain.
fn spill_chain_image(n: usize, filler: usize) -> Vec<u8> {
    assert!(n >= 2, "a chain needs _start plus at least one callee");
    let mut asm = Assembler::new();
    let labels: Vec<_> = (0..n).map(|_| asm.label()).collect();
    let mut offsets = Vec::with_capacity(n);
    for (i, label) in labels.iter().enumerate() {
        asm.align_to(BUNDLE_SIZE);
        offsets.push(asm.offset());
        asm.bind(*label);
        if i == 0 {
            asm.movabs(Reg::Rbx, SECRET);
            asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
            asm.mov_rr64(Reg::Rdi, Reg::Rax);
            asm.call_label(labels[1]);
        } else {
            for k in 0..filler {
                let slot = 8 * (1 + (k as i8 / 2) % 4);
                if k % 2 == 0 {
                    asm.mov_reg_to_rsp_disp8(Reg::Rdi, slot);
                } else {
                    asm.mov_rsp_disp8_to_reg(Reg::Rdi, slot);
                }
            }
            if i + 1 < n {
                asm.call_label(labels[i + 1]);
            } else {
                asm.movabs(Reg::Rdx, SINK_IN);
                asm.mov_reg_to_mem64(Reg::Rdi, Reg::Rdx);
            }
        }
        asm.ret();
    }
    let text = asm.finish();
    let len = text.len() as u64;
    let mut builder = ElfBuilder::new();
    builder.text(text).entry(0);
    let names: Vec<String> = (0..n)
        .map(|i| {
            if i == 0 {
                "_start".into()
            } else {
                format!("f{i}")
            }
        })
        .collect();
    for (i, &off) in offsets.iter().enumerate() {
        let end = offsets.get(i + 1).copied().unwrap_or(len);
        builder.function(&names[i], off, end - off);
    }
    builder.build()
}

fn load_image(image: &[u8], seed: u64) -> (SgxMachine, EnclaveId, LoadedBinary) {
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    });
    let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
        .expect("eadd");
    m.eextend(id, 0x10000).expect("eextend");
    m.einit(id).expect("einit");
    m.eenter(id).expect("eenter");
    let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("bench image loads");
    (m, id, loaded)
}

/// One scaling measurement at call-chain depth `n`.
struct ScalePoint {
    functions: usize,
    image_bytes: usize,
    taint_cycles: u64,
    propagation_steps: u64,
    sccs: u64,
    fixpoint_visits: u64,
    leaks: u64,
}

fn measure_depth(n: usize, filler: usize, seed: u64) -> ScalePoint {
    let image = chain_image(n, filler);
    let (_m, _id, loaded) = load_image(&image, seed);
    let (analysis, _cfg_cycles) = ProgramAnalysis::compute(&loaded);
    let (taint, cycles) = TaintAnalysis::compute(&loaded, &analysis, &loaded.secret_ranges);
    let stats = taint.stats(cycles);
    assert_eq!(
        stats.leaks_found, 0,
        "depth-{n} chain stores in-enclave only"
    );
    ScalePoint {
        functions: n,
        image_bytes: image.len(),
        taint_cycles: cycles,
        propagation_steps: taint.steps,
        sccs: stats.scc_count,
        fixpoint_visits: stats.fixpoint_iterations,
        leaks: stats.leaks_found,
    }
}

/// Cycles one `run_policies` call charges for `policies` on `image`.
fn policy_cycles(image: &[u8], policies: Vec<Box<dyn PolicyModule>>, seed: u64) -> u64 {
    let (mut m, _, loaded) = load_image(image, seed);
    let snap = *m.counter();
    run_policies(&policies, &loaded, m.counter_mut()).expect("compliant bench image passes");
    m.counter().since(&snap)
}

/// One adversarial fixture check: `rejected` is what the leaking
/// variant must do, and the fixture's compliant twin must pass.
fn fixture_verdict(image: &[u8], policies: Vec<Box<dyn PolicyModule>>, seed: u64) -> bool {
    let (mut m, _, loaded) = load_image(image, seed);
    run_policies(&policies, &loaded, m.counter_mut()).is_ok()
}

fn main() {
    let args = parse_args();
    eprintln!(
        "bench_taint_analysis: depths {:?}, filler {} moves/frame",
        args.depths, args.filler
    );

    let scaling: Vec<ScalePoint> = args
        .depths
        .iter()
        .map(|&n| {
            let p = measure_depth(n, args.filler, args.seed);
            eprintln!(
                "  depth {:>3}: {:>6} bytes, {:>8} taint cycles, {} steps, {} SCCs, {} visits",
                p.functions,
                p.image_bytes,
                p.taint_cycles,
                p.propagation_steps,
                p.sccs,
                p.fixpoint_visits
            );
            p
        })
        .collect();

    // Memo saving: two taint-backed policies sharing one AnalysisCache
    // versus each paying for the pass from scratch.
    let deepest = chain_image(*args.depths.iter().max().expect("depths"), args.filler);
    let leakage_only = policy_cycles(
        &deepest,
        vec![Box::new(SecretLeakage::new()) as Box<dyn PolicyModule>],
        args.seed,
    );
    let branch_only = policy_cycles(
        &deepest,
        vec![Box::new(SecretDependentBranch::new()) as Box<dyn PolicyModule>],
        args.seed,
    );
    let shared_both = policy_cycles(
        &deepest,
        vec![
            Box::new(SecretLeakage::new()) as Box<dyn PolicyModule>,
            Box::new(SecretDependentBranch::new()) as Box<dyn PolicyModule>,
        ],
        args.seed,
    );
    let memo_speedup = (leakage_only + branch_only) as f64 / shared_both as f64;
    eprintln!(
        "  memo: leakage {leakage_only} + branch {branch_only} fresh vs {shared_both} shared = {memo_speedup:.2}x"
    );
    assert!(
        shared_both < leakage_only + branch_only,
        "the shared memo must beat two fresh passes"
    );

    // Memory-domain overhead: the same chain depth and per-frame
    // instruction count, with every filler move replaced by a
    // spill/reload through a rotating frame slot — the cycle delta is
    // what the abstract memory environment costs.
    let max_depth = *args.depths.iter().max().expect("depths");
    let plain = measure_depth(max_depth, args.filler, args.seed);
    let spill_img = spill_chain_image(max_depth, args.filler);
    let (_m, _id, spill_loaded) = load_image(&spill_img, args.seed);
    let (spill_analysis, _) = ProgramAnalysis::compute(&spill_loaded);
    let (spill_taint, spill_cycles) =
        TaintAnalysis::compute(&spill_loaded, &spill_analysis, &spill_loaded.secret_ranges);
    let spill_stats = spill_taint.stats(spill_cycles);
    assert_eq!(
        spill_stats.leaks_found, 0,
        "the spill chain stores in-enclave only"
    );
    assert!(
        spill_stats.spill_cells >= 1,
        "the spill chain must exercise tracked cells"
    );
    let overhead_pct =
        100.0 * (spill_cycles as f64 - plain.taint_cycles as f64) / plain.taint_cycles as f64;
    eprintln!(
        "  memory domain: {} plain vs {} spill cycles ({:+.1}%), {} cells, {} cell steps, {} weak updates",
        plain.taint_cycles,
        spill_cycles,
        overhead_pct,
        spill_stats.spill_cells,
        spill_taint.cell_steps,
        spill_stats.weak_updates,
    );

    // Adversarial fixtures: leaking variants rejected, twins pass.
    let leakage = || vec![Box::new(SecretLeakage::new()) as Box<dyn PolicyModule>];
    let lenient = || vec![Box::new(SecretLeakage::lenient()) as Box<dyn PolicyModule>];
    let branch = || vec![Box::new(SecretDependentBranch::new()) as Box<dyn PolicyModule>];
    const SCRATCH: u64 = 0x10900;
    const PTR: u64 = 0x10a00;
    let fixtures = [
        (
            "register_leak_rejected",
            !fixture_verdict(
                &adversarial::secret_register_leak(SECRET, SINK_OUT),
                leakage(),
                args.seed,
            ),
        ),
        (
            "register_twin_passes",
            fixture_verdict(
                &adversarial::secret_register_leak(SECRET, SINK_IN),
                leakage(),
                args.seed,
            ),
        ),
        (
            "secret_branch_rejected",
            !fixture_verdict(&adversarial::secret_branch(SECRET), branch(), args.seed),
        ),
        (
            "constant_branch_twin_passes",
            fixture_verdict(&adversarial::constant_branch(), branch(), args.seed),
        ),
        (
            "interprocedural_leak_rejected",
            !fixture_verdict(
                &adversarial::interprocedural_leak(SECRET, SINK_OUT),
                leakage(),
                args.seed,
            ),
        ),
        (
            "interprocedural_twin_passes",
            fixture_verdict(
                &adversarial::interprocedural_leak(SECRET, SINK_IN),
                leakage(),
                args.seed,
            ),
        ),
        (
            "spill_leak_rejected",
            !fixture_verdict(
                &adversarial::stack_spill_leak(SECRET, SINK_OUT),
                leakage(),
                args.seed,
            ),
        ),
        (
            "spill_twin_passes",
            fixture_verdict(
                &adversarial::stack_spill_leak(SECRET, SINK_IN),
                leakage(),
                args.seed,
            ),
        ),
        (
            "spill_branch_rejected",
            !fixture_verdict(&adversarial::spill_branch(SECRET), branch(), args.seed),
        ),
        (
            "constant_spill_branch_twin_passes",
            fixture_verdict(&adversarial::constant_spill_branch(), branch(), args.seed),
        ),
        (
            "spill_escape_rejected",
            !fixture_verdict(
                &adversarial::interprocedural_spill_escape(SECRET, SCRATCH, SINK_OUT),
                leakage(),
                args.seed,
            ),
        ),
        (
            "spill_escape_twin_passes",
            fixture_verdict(
                &adversarial::interprocedural_spill_escape(SECRET, SCRATCH, SINK_IN),
                leakage(),
                args.seed,
            ),
        ),
        (
            "unresolved_store_rejected_strict",
            !fixture_verdict(
                &adversarial::unresolved_pointer_store(SECRET, PTR),
                leakage(),
                args.seed,
            ),
        ),
        (
            "unresolved_clean_twin_passes",
            fixture_verdict(
                &adversarial::unresolved_pointer_store_clean(PTR),
                leakage(),
                args.seed,
            ),
        ),
        (
            "unresolved_store_lenient_passes",
            fixture_verdict(
                &adversarial::unresolved_pointer_store(SECRET, PTR),
                lenient(),
                args.seed,
            ),
        ),
    ];
    let all_correct = fixtures.iter().all(|&(_, ok)| ok);
    for (name, ok) in &fixtures {
        eprintln!("  fixture {name}: {ok}");
    }
    assert!(all_correct, "an adversarial fixture got the wrong verdict");

    let scaling = scaling.iter().map(|p| {
        Json::obj([
            ("functions", p.functions.into()),
            ("image_bytes", p.image_bytes.into()),
            ("taint_cycles", p.taint_cycles.into()),
            ("propagation_steps", p.propagation_steps.into()),
            ("sccs", p.sccs.into()),
            ("fixpoint_visits", p.fixpoint_visits.into()),
            ("leaks", p.leaks.into()),
        ])
    });
    let memo = [
        ("single_leakage_cycles", leakage_only.into()),
        ("single_branch_cycles", branch_only.into()),
        ("shared_two_policy_cycles", shared_both.into()),
        ("memo_speedup", Json::Fixed(memo_speedup, 4)),
    ];
    let memory_domain = [
        ("plain_chain_cycles", plain.taint_cycles.into()),
        ("spill_chain_cycles", spill_cycles.into()),
        ("overhead_pct", Json::Fixed(overhead_pct, 2)),
        ("cell_steps", spill_taint.cell_steps.into()),
        ("spill_cells", spill_stats.spill_cells.into()),
        ("weak_updates", spill_stats.weak_updates.into()),
        (
            "unresolved_store_sinks",
            spill_stats.unresolved_store_sinks.into(),
        ),
    ];
    let doc = Json::obj([
        ("seed", args.seed.into()),
        ("filler_moves", args.filler.into()),
        ("scaling", Json::Arr(scaling.collect())),
        ("memo", Json::obj(memo)),
        ("memory_domain", Json::obj(memory_domain)),
        (
            "fixtures",
            Json::obj(fixtures.map(|(name, ok)| (name, ok.into()))),
        ),
        ("all_fixtures_correct", all_correct.into()),
    ]);
    write_json(&args.out, &doc);
}
