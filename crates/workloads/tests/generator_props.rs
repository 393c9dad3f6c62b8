//! Property-based tests on the workload generator: every spec in a wide
//! parameter envelope must yield a valid, NaCl-clean, exactly-sized PIE.
//!
//! Runs on the in-tree harness (`engarde_rand::harness`). The two
//! `regression_*` tests below pin the exact parameter sets that the old
//! proptest suite recorded as failures (its `proptest-regressions`
//! file); they are full deterministic unit tests, not seed replays, so
//! the bugs stay fixed even if the harness's derivation changes.

use engarde_elf::parse::ElfFile;
use engarde_rand::harness::{pick, Property};
use engarde_rand::Rng;
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::libc::Instrumentation;
use engarde_x86::decode::decode_all;
use engarde_x86::index::InsnIndex;
use engarde_x86::validate::Validator;

/// Every invariant an arbitrary generated workload must satisfy.
fn check_workload(spec: &WorkloadSpec) {
    let target = spec.target_instructions;
    let w = generate(spec);

    // Parses as a static PIE.
    let elf = ElfFile::parse(&w.image).expect("parses");
    assert!(elf.require_pie().is_ok());
    assert!(elf.require_static().is_ok());

    // Text decodes to exactly the reported (and targeted) count.
    let text = elf.exec_segment();
    let bytes = text.file_bytes(&w.image).expect("text in image");
    let insns = decode_all(bytes, text.p_vaddr).expect("decodes");
    assert_eq!(insns.len(), w.stats.instructions);
    assert_eq!(w.stats.instructions, target, "exact instruction count");

    // NaCl-clean with the symbol roots.
    let roots: Vec<u64> = elf.function_symbols().map(|s| s.symbol.st_value).collect();
    let report = Validator::new()
        .validate(
            &insns,
            &InsnIndex::new(&insns),
            elf.header().e_entry,
            &roots,
        )
        .expect("NaCl validation");
    assert_eq!(report.instructions, insns.len());

    // Relocation metadata is consistent.
    let relas = elf.rela_entries(&w.image).expect("relas parse");
    assert_eq!(relas.len(), spec.relocation_count);

    // The entry point is a real function symbol.
    let entry = elf.header().e_entry;
    assert!(
        elf.function_symbols().any(|s| s.symbol.st_value == entry),
        "entry {entry:#x} is a function"
    );
}

#[test]
fn arbitrary_specs_produce_valid_binaries() {
    let instrumentations = [
        Instrumentation::None,
        Instrumentation::StackProtector,
        Instrumentation::Ifcc,
    ];
    Property::new("arbitrary_specs_produce_valid_binaries")
        .cases(24) // generation is heavyweight
        // 0x1d7c…: stack-protected libc whose intra-bundle padding nops
        // pushed the base content 4 insns past the target.
        .regressions(&[0x1d7c74073b9f10fb])
        .run(|rng| {
            // No admissibility guard: the generator budgets its own
            // base content (libc pull-in, IFCC table, dispatcher), so
            // the exact-count property must hold over the whole
            // envelope — including specs whose requested libc alone
            // would overflow the target.
            let target = rng.gen_range(6_000usize..40_000);
            let avg_fn = rng.gen_range(20usize..600);
            let calls = rng.gen_range(1usize..30);
            let libc_used = rng.gen_range(5usize..200);
            let relocs = rng.gen_range(0usize..300);
            let seed: u64 = rng.gen();
            let instrumentation = *pick(rng, &instrumentations);
            println!(
                "case: target={target} avg_fn={avg_fn} calls={calls} libc_used={libc_used} \
                 relocs={relocs} seed={seed} instrumentation={instrumentation:?}"
            );
            check_workload(&WorkloadSpec {
                name: "prop".into(),
                target_instructions: target,
                instrumentation,
                avg_app_fn_insns: avg_fn,
                calls_per_app_fn: calls,
                libc_functions_used: libc_used,
                jump_table_entries: 32,
                indirect_calls_per_app_fn: 1,
                relocation_count: relocs,
                data_bytes: 2048,
                bss_bytes: 4096,
                seed,
            });
        });
}

#[test]
fn function_symbols_partition_the_text_section() {
    Property::new("function_symbols_partition_the_text_section")
        .cases(24)
        .run(|rng| {
            let spec = WorkloadSpec {
                target_instructions: rng.gen_range(6_000usize..20_000),
                seed: rng.gen(),
                ..WorkloadSpec::default()
            };
            let w = generate(&spec);
            let elf = ElfFile::parse(&w.image).expect("parses");
            let text = elf.section(".text").expect(".text");
            let mut syms: Vec<_> = elf
                .function_symbols()
                .map(|s| (s.symbol.st_value, s.symbol.st_size))
                .collect();
            syms.sort_unstable();
            // Contiguous, non-overlapping, ending at the text end.
            for window in syms.windows(2) {
                let (a, sa) = window[0];
                let (b, _) = window[1];
                assert_eq!(a + sa, b, "function extents tile the text");
            }
            let (last, last_size) = *syms.last().expect("some symbols");
            assert_eq!(last + last_size, text.header.sh_addr + text.header.sh_size);
        });
}

/// Pinned failure #1 from the retired `proptest-regressions` file: an
/// IFCC-instrumented spec whose generated binary violated the suite's
/// invariants (`target = 15160, avg_fn = 253, calls = 14,
/// libc_used = 124, relocs = 0, seed = 7529579881471711973`).
#[test]
fn regression_ifcc_target_15160() {
    check_workload(&WorkloadSpec {
        name: "regression-ifcc".into(),
        target_instructions: 15_160,
        instrumentation: Instrumentation::Ifcc,
        avg_app_fn_insns: 253,
        calls_per_app_fn: 14,
        libc_functions_used: 124,
        jump_table_entries: 32,
        indirect_calls_per_app_fn: 1,
        relocation_count: 0,
        data_bytes: 2048,
        bss_bytes: 4096,
        seed: 7529579881471711973,
    });
}

/// Pinned failure #2 from the retired `proptest-regressions` file: a
/// stack-protector spec right at the envelope floor (`target = 6000,
/// avg_fn = 20, calls = 1, libc_used = 85, relocs = 0,
/// seed = 105475061677034650`).
#[test]
fn regression_stack_protector_target_6000() {
    check_workload(&WorkloadSpec {
        name: "regression-ssp".into(),
        target_instructions: 6_000,
        instrumentation: Instrumentation::StackProtector,
        avg_app_fn_insns: 20,
        calls_per_app_fn: 1,
        libc_functions_used: 85,
        jump_table_entries: 32,
        indirect_calls_per_app_fn: 1,
        relocation_count: 0,
        data_bytes: 2048,
        bss_bytes: 4096,
        seed: 105475061677034650,
    });
}
