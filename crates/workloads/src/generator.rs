//! Synthetic benchmark-binary generator.
//!
//! Stands in for the paper's evaluation binaries (Nginx, SPEC, Memcached,
//! …) compiled with clang/LLVM 3.6 as statically-linked PIEs against
//! musl-libc. A [`WorkloadSpec`] describes the binary's shape — total
//! instruction count (matched to the paper's per-figure `#Inst` columns),
//! function-size profile, libc usage, instrumentation — and
//! [`generate`] emits a genuine ELF64 image that EnGarde's loader,
//! disassembler, validator and policy modules consume exactly as they
//! would a compiler-produced binary.
//!
//! # Examples
//!
//! ```
//! use engarde_workloads::generator::{generate, WorkloadSpec};
//!
//! let spec = WorkloadSpec {
//!     name: "demo".into(),
//!     target_instructions: 6_000,
//!     ..WorkloadSpec::default()
//! };
//! let workload = generate(&spec);
//! assert_eq!(workload.stats.instructions, 6_000);
//! ```

use crate::libc::{
    body_profile, emit_filler, DetRng, Instrumentation, LibcLibrary, MUSL_FUNCTION_NAMES,
};
use engarde_elf::build::ElfBuilder;
use engarde_x86::encode::{Assembler, Label};
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;

/// Shape parameters for one synthetic benchmark binary.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Benchmark name (becomes the `main`-like symbol prefix).
    pub name: String,
    /// Exact total instruction count of the text section (the paper's
    /// `#Inst` column); the generator pads with `nop` to hit it.
    pub target_instructions: usize,
    /// Compiler instrumentation mode.
    pub instrumentation: Instrumentation,
    /// Mean app-function body size in instructions (before calls and
    /// instrumentation). Large values model SPEC-style hot-loop code.
    pub avg_app_fn_insns: usize,
    /// Direct libc/app calls per app function (call density drives the
    /// library-linking policy's hashing work).
    pub calls_per_app_fn: usize,
    /// How many libc functions the binary links in (static linking pulls
    /// only the archive members the app uses). Treated as an upper bound:
    /// members that would push the base content past
    /// `target_instructions` are dropped so the exact count stays
    /// reachable.
    pub libc_functions_used: usize,
    /// Jump-table entries for IFCC builds (rounded up to a power of two;
    /// the paper's Nginx table masks with `0x1ff8`, i.e. 1,024 entries).
    pub jump_table_entries: usize,
    /// Indirect call sites per app function in IFCC builds.
    pub indirect_calls_per_app_fn: usize,
    /// `R_X86_64_RELATIVE` relocation count (drives loading cost).
    pub relocation_count: usize,
    /// `.data` size in bytes.
    pub data_bytes: usize,
    /// `.bss` size in bytes.
    pub bss_bytes: usize,
    /// Generation seed (app code only; libc bodies stay canonical).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "workload".into(),
            target_instructions: 10_000,
            instrumentation: Instrumentation::None,
            avg_app_fn_insns: 40,
            calls_per_app_fn: 4,
            libc_functions_used: 80,
            jump_table_entries: 64,
            indirect_calls_per_app_fn: 1,
            relocation_count: 16,
            data_bytes: 4096,
            bss_bytes: 8192,
            seed: 0xEC0DE,
        }
    }
}

/// Measured properties of a generated binary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkloadStats {
    /// Total text-section instructions (== the spec target: the libc
    /// pull-in, app-function, and padding stages all budget against it).
    pub instructions: usize,
    /// Generated app functions.
    pub app_functions: usize,
    /// Embedded libc functions.
    pub libc_functions: usize,
    /// Direct call sites emitted.
    pub direct_calls: usize,
    /// IFCC-instrumented indirect call sites emitted.
    pub indirect_call_sites: usize,
    /// Jump-table entries (0 for non-IFCC builds).
    pub jump_table_entries: usize,
    /// Text size in bytes.
    pub text_bytes: usize,
    /// Relocation entries.
    pub relocations: usize,
}

/// A generated benchmark binary.
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    /// Benchmark name.
    pub name: String,
    /// The ELF64 PIE image.
    pub image: Vec<u8>,
    /// Shape measurements.
    pub stats: WorkloadStats,
    /// Instrumentation the binary was "compiled" with.
    pub instrumentation: Instrumentation,
}

struct FnRecord {
    name: String,
    offset: u64,
}

/// Generates a benchmark binary from its spec.
///
/// The output is deterministic in the spec (including the seed).
///
/// # Panics
///
/// Panics if `libc_functions_used` exceeds the synthetic musl's function
/// count.
pub fn generate(spec: &WorkloadSpec) -> GeneratedWorkload {
    assert!(
        spec.libc_functions_used <= MUSL_FUNCTION_NAMES.len(),
        "synthetic musl has only {} functions",
        MUSL_FUNCTION_NAMES.len()
    );
    let mut rng = DetRng::new(spec.seed);
    let mut asm = Assembler::new();
    let mut functions: Vec<FnRecord> = Vec::new();
    let mut stats = WorkloadStats::default();

    // ---- budgets --------------------------------------------------------
    // The exact-count guarantee needs every emission stage to stay under
    // the target, because the final nop padding can only add.
    let table_entries = if spec.instrumentation == Instrumentation::Ifcc {
        spec.jump_table_entries.next_power_of_two().max(8)
    } else {
        0
    };
    // Pessimistic per-function budget: the body is avg/2 + uniform[0,avg)
    // (worst case 1.5×avg), instrumentation adds up to ~16, and bundle
    // padding can reach ~20% for long-instruction mixes.
    let worst_body = spec.avg_app_fn_insns * 3 / 2;
    let per_fn_cost = worst_body
        + spec.calls_per_app_fn
        + spec.indirect_calls_per_app_fn * 7
        + 16
        + (worst_body + spec.calls_per_app_fn) / 5;
    // Instructions the stages after libc always emit: the dispatcher
    // (alignment + ret), and for IFCC builds the jump table plus the one
    // app function the table needs as a target.
    let tail_reserve = if table_entries > 0 {
        table_entries * 2 + per_fn_cost + 96
    } else {
        33
    };
    // Instructions the libc stage may consume before the tail no longer
    // fits under the target.
    let libc_budget = spec.target_instructions.saturating_sub(tail_reserve);
    // Exact cost of the bundle-alignment nops the next `align_to` emits.
    let align_pad =
        |asm: &Assembler| ((BUNDLE_SIZE - asm.offset() % BUNDLE_SIZE) % BUNDLE_SIZE) as usize;

    // ---- libc ---------------------------------------------------------
    // Static linking pulls in `libc_functions_used` members, always
    // including the runtime's own entry dependencies. Members beyond the
    // mandatory runtime trio are dropped once they would push the base
    // content past the instruction target (the recorded
    // stack-protector/target-6000 regression: an un-budgeted libc pull-in
    // alone overshot the target, making the exact count unreachable).
    const MANDATORY_LIBC: [&str; 3] = ["__libc_start_main", "exit", "__stack_chk_fail"];
    let mut used: Vec<&'static str> = MANDATORY_LIBC.to_vec();
    for &name in MUSL_FUNCTION_NAMES {
        if used.len() >= spec.libc_functions_used.max(3) {
            break;
        }
        if !used.contains(&name) {
            used.push(name);
        }
    }

    let plain_lib = LibcLibrary::build(Instrumentation::None);
    let mut libc_labels: Vec<(usize, Label)> = Vec::new(); // index into `used`
    let stack_chk_fail_label;
    match spec.instrumentation {
        Instrumentation::StackProtector => {
            // Instrumented libc: emit bodies inline so the canary check
            // can call the real __stack_chk_fail.
            let fail_lbl = asm.label();
            stack_chk_fail_label = fail_lbl;
            // __stack_chk_fail itself first (not self-protected).
            asm.align_to(BUNDLE_SIZE);
            asm.bind(fail_lbl);
            functions.push(FnRecord {
                name: "__stack_chk_fail".into(),
                offset: asm.offset(),
            });
            let (seed, insns) = body_profile("__stack_chk_fail", Instrumentation::StackProtector);
            let mut frng = DetRng::new(seed);
            asm.push_reg(Reg::Rbp);
            asm.mov_rr64(Reg::Rbp, Reg::Rsp);
            emit_filler(&mut asm, &mut frng, insns);
            asm.pop_reg(Reg::Rbp);
            asm.ret();
            for (i, &name) in used.iter().enumerate() {
                if name == "__stack_chk_fail" {
                    libc_labels.push((i, fail_lbl));
                    continue;
                }
                // Exact cost: protected bodies always start
                // bundle-aligned, so a scratch emission (also starting
                // at a bundle boundary) reproduces every intra-bundle
                // padding nop the real emission will insert.
                let cost = align_pad(&asm) + {
                    let mut scratch = Assembler::new();
                    let scratch_fail = scratch.label();
                    emit_protected_function(&mut scratch, name, scratch_fail);
                    scratch.insn_count() as usize
                };
                if !MANDATORY_LIBC.contains(&name) && asm.insn_count() as usize + cost > libc_budget
                {
                    continue; // would overshoot the target: don't link it
                }
                let lbl = asm.label();
                asm.align_to(BUNDLE_SIZE);
                asm.bind(lbl);
                functions.push(FnRecord {
                    name: name.into(),
                    offset: asm.offset(),
                });
                emit_protected_function(&mut asm, name, fail_lbl);
                libc_labels.push((i, lbl));
            }
        }
        Instrumentation::None | Instrumentation::Ifcc => {
            // Canonical blocks, embedded verbatim at bundle-aligned
            // offsets so the library-linking hash database matches.
            let mut fail = None;
            for (i, &name) in used.iter().enumerate() {
                let f = plain_lib.function(name).expect("used fn exists in musl");
                let cost = align_pad(&asm) + f.insn_count;
                if !MANDATORY_LIBC.contains(&name) && asm.insn_count() as usize + cost > libc_budget
                {
                    continue; // would overshoot the target: don't link it
                }
                let lbl = asm.label();
                asm.align_to(BUNDLE_SIZE);
                asm.bind(lbl);
                functions.push(FnRecord {
                    name: name.into(),
                    offset: asm.offset(),
                });
                asm.raw_bytes(&f.code);
                asm.note_raw_instructions(f.insn_count as u64);
                if name == "__stack_chk_fail" {
                    fail = Some(lbl);
                }
                libc_labels.push((i, lbl));
            }
            stack_chk_fail_label = fail.expect("__stack_chk_fail always linked");
        }
    }
    stats.libc_functions = libc_labels.len();
    let _ = stack_chk_fail_label;
    // Functions an app would never call directly (the canary failure
    // handler aborts the process) are excluded from the random call
    // pool so generated binaries are *executable*, not only checkable.
    let callable_libc: Vec<Label> = libc_labels
        .iter()
        .filter(|(i, _)| {
            used[*i] != "__stack_chk_fail" && used[*i] != "abort" && used[*i] != "_Exit"
        })
        .map(|(_, l)| *l)
        .collect();

    // ---- app functions ---------------------------------------------------
    // Emit until the remaining budget just covers the dispatcher, the
    // IFCC table, and slack for padding.
    let table_label = asm.label();
    let mut app_labels: Vec<Label> = Vec::new();
    loop {
        // Each 5-byte call packs 6 per 32-byte bundle with 2 padding
        // nops, so the dispatcher costs ~4/3 instructions per call.
        let dispatcher_cost = app_labels.len() * 4 / 3 + 8;
        let table_cost = table_entries * 2 + 16;
        let budget = spec
            .target_instructions
            .saturating_sub(asm.insn_count() as usize + dispatcher_cost + table_cost);
        // IFCC builds need at least one function for the jump table;
        // otherwise a base (libc) that already fills the target simply
        // gets no app code.
        let must_emit = app_labels.is_empty() && table_entries > 0;
        if !must_emit && budget < per_fn_cost + 32 {
            break;
        }
        let idx = app_labels.len();
        let lbl = asm.label();
        asm.align_to(BUNDLE_SIZE);
        asm.bind(lbl);
        functions.push(FnRecord {
            name: format!("{}_fn_{idx}", spec.name),
            offset: asm.offset(),
        });
        emit_app_function(
            &mut asm,
            spec,
            &mut rng,
            &callable_libc,
            &app_labels,
            stack_chk_fail_label,
            table_label,
            &mut stats,
        );
        app_labels.push(lbl);
        if app_labels.len() > 1_000_000 {
            unreachable!("runaway generation");
        }
    }
    stats.app_functions = app_labels.len();

    // ---- dispatcher (_start) ---------------------------------------------
    let start_lbl = asm.label();
    asm.align_to(BUNDLE_SIZE);
    let entry_offset = {
        asm.bind(start_lbl);
        let off = asm.offset();
        functions.push(FnRecord {
            name: "_start".into(),
            offset: off,
        });
        for &lbl in &app_labels {
            asm.call_label(lbl);
            stats.direct_calls += 1;
        }
        asm.ret();
        off
    };

    // ---- IFCC jump table ---------------------------------------------------
    let mut table_symbols: Vec<FnRecord> = Vec::new();
    if table_entries > 0 {
        asm.align_to(BUNDLE_SIZE);
        asm.bind(table_label);
        for i in 0..table_entries {
            let target = app_labels[i % app_labels.len()];
            table_symbols.push(FnRecord {
                name: format!("__llvm_jump_instr_table_0_{i}"),
                offset: asm.offset(),
            });
            asm.jmp_label(target);
            asm.nopl_rax();
        }
        stats.jump_table_entries = table_entries;
    }
    functions.extend(table_symbols);

    // ---- pad to the exact target --------------------------------------------
    while (asm.insn_count() as usize) < spec.target_instructions {
        asm.nop();
    }
    stats.instructions = asm.insn_count() as usize;

    let text = asm.finish();
    stats.text_bytes = text.len();
    stats.relocations = spec.relocation_count;

    // ---- ELF assembly ---------------------------------------------------------
    let mut builder = ElfBuilder::new();
    builder.text(text);
    builder.entry(entry_offset);
    let mut data = vec![0u8; spec.data_bytes];
    let mut drng = DetRng::new(spec.seed ^ 0xDA7A);
    for b in data.iter_mut() {
        *b = drng.next() as u8;
    }
    builder.data(data);
    let reloc_span = (spec.relocation_count * 8) as u64;
    let bss = (spec.bss_bytes as u64).max(reloc_span.saturating_sub(spec.data_bytes as u64));
    builder.bss_size(bss);
    for i in 0..spec.relocation_count {
        builder.relative_relocation((i * 8) as u64, 0x1000 + (i as i64 % 64) * 8);
    }
    // Function symbols with sizes = gap to the next function start.
    let mut sorted: Vec<&FnRecord> = functions.iter().collect();
    sorted.sort_by_key(|f| f.offset);
    for (i, f) in sorted.iter().enumerate() {
        let end = sorted
            .get(i + 1)
            .map(|n| n.offset)
            .unwrap_or(stats.text_bytes as u64);
        builder.function(&f.name, f.offset, end - f.offset);
    }
    let image = builder.build();

    GeneratedWorkload {
        name: spec.name.clone(),
        image,
        stats,
        instrumentation: spec.instrumentation,
    }
}

/// Emits one stack-protected libc body inline (canary prologue/epilogue
/// with a real `callq __stack_chk_fail` failure block).
fn emit_protected_function(asm: &mut Assembler, name: &str, fail_fn: Label) {
    let (seed, insns) = body_profile(name, Instrumentation::StackProtector);
    let mut rng = DetRng::new(seed);
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.canary_store();
    emit_filler(asm, &mut rng, insns);
    let fail_block = asm.label();
    asm.canary_check(fail_block);
    asm.canary_release();
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    asm.bind(fail_block);
    asm.call_label(fail_fn);
    asm.ret();
}

#[allow(clippy::too_many_arguments)]
fn emit_app_function(
    asm: &mut Assembler,
    spec: &WorkloadSpec,
    rng: &mut DetRng,
    libc_labels: &[Label],
    app_labels: &[Label],
    stack_chk_fail: Label,
    table_label: Label,
    stats: &mut WorkloadStats,
) {
    let protect = spec.instrumentation == Instrumentation::StackProtector;
    let body = spec.avg_app_fn_insns / 2 + rng.below(spec.avg_app_fn_insns.max(2) as u64) as usize;
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    let fail_block = asm.label();
    if protect {
        asm.canary_store();
    }
    // Interleave filler with call sites.
    let calls = spec.calls_per_app_fn;
    let chunk = (body / (calls + 1)).max(1);
    let mut emitted = 0usize;
    for _ in 0..calls {
        emit_filler(asm, rng, chunk);
        emitted += chunk;
        // 3 in 4 call sites target libc; the rest target earlier app fns.
        if rng.below(4) < 3 || app_labels.is_empty() {
            let lbl = libc_labels[rng.below(libc_labels.len() as u64) as usize];
            asm.call_label(lbl);
        } else {
            let lbl = app_labels[rng.below(app_labels.len() as u64) as usize];
            asm.call_label(lbl);
        }
        stats.direct_calls += 1;
    }
    if emitted < body {
        emit_filler(asm, rng, body - emitted);
    }
    // IFCC call sites: the paper's lea/sub/and/add/callq *%rcx sequence.
    if spec.instrumentation == Instrumentation::Ifcc {
        for _ in 0..spec.indirect_calls_per_app_fn {
            let mask = (spec.jump_table_entries.next_power_of_two().max(8) * 8 - 8) as u32;
            asm.mov_ri32(Reg::Rcx, rng.next() as u32);
            asm.lea_rip_label(Reg::Rax, table_label);
            asm.sub_rr32(Reg::Rcx, Reg::Rax);
            asm.and_ri64(Reg::Rcx, mask);
            asm.add_rr64(Reg::Rcx, Reg::Rax);
            asm.call_reg(Reg::Rcx);
            stats.indirect_call_sites += 1;
        }
    }
    if protect {
        asm.canary_check(fail_block);
        asm.canary_release();
    }
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    if protect {
        asm.bind(fail_block);
        asm.call_label(stack_chk_fail);
        asm.ret();
    }
}
