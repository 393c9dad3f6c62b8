//! Property tests for the static-analysis engine, driven by the
//! in-tree harness (`engarde_rand::harness::Property`).
//!
//! Each case generates a random workload (seed, size, instrumentation
//! all drawn from the case rng), loads it through the real in-enclave
//! loader, runs [`ProgramAnalysis::compute`], and checks a structural
//! invariant. Failing case seeds are replayed via `ENGARDE_PROP_SEED`
//! and pinned with `.regressions(&[..])`.

use engarde_core::analysis::{
    AbsTaint, CellKey, Edge, MemEnv, ProgramAnalysis, SecretClass, SecretRange, TaintAnalysis,
    TaintSet,
};
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_elf::build::ElfBuilder;
use engarde_rand::harness::{pick, Property};
use engarde_rand::{ChaChaRng, Rng};
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{MachineConfig, SgxMachine};
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::libc::Instrumentation;
use engarde_x86::encode::Assembler;
use engarde_x86::insn::Width;
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;

/// Draws a random-but-valid workload spec from the case rng.
fn random_spec(rng: &mut ChaChaRng) -> WorkloadSpec {
    WorkloadSpec {
        target_instructions: rng.gen_range(1_500usize..7_000),
        instrumentation: *pick(rng, &[Instrumentation::None, Instrumentation::Ifcc]),
        avg_app_fn_insns: rng.gen_range(20usize..60),
        calls_per_app_fn: rng.gen_range(1usize..6),
        jump_table_entries: rng.gen_range(8usize..64),
        seed: rng.gen::<u64>(),
        ..WorkloadSpec::default()
    }
}

fn analyzed_case(rng: &mut ChaChaRng) -> (LoadedBinary, ProgramAnalysis) {
    let image = generate(&random_spec(rng)).image;
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 9,
    });
    let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
        .expect("eadd");
    m.eextend(id, 0x10000).expect("eextend");
    m.einit(id).expect("einit");
    m.eenter(id).expect("enter");
    let loaded = load(&mut m, id, &image, &LoaderConfig::default()).expect("loads");
    let (analysis, _) = ProgramAnalysis::compute(&loaded);
    (loaded, analysis)
}

#[test]
fn every_insn_lands_in_exactly_one_block() {
    Property::new("every_insn_lands_in_exactly_one_block")
        .cases(10)
        .regressions(&[])
        .run(|rng| {
            let (loaded, analysis) = analyzed_case(rng);
            // Blocks are contiguous, in order, and cover every decoded
            // instruction exactly once.
            let mut next = 0usize;
            for b in &analysis.cfg.blocks {
                assert_eq!(b.insns.start, next, "no gap or overlap between blocks");
                assert!(b.insns.end > b.insns.start, "no empty blocks");
                next = b.insns.end;
                assert_eq!(b.start, loaded.insns[b.insns.start].addr);
                assert_eq!(b.end, loaded.insns[b.insns.end - 1].end());
            }
            assert_eq!(next, loaded.insns.len(), "blocks cover the whole buffer");
            // Leader lookups agree with the partition.
            for (id, b) in analysis.cfg.blocks.iter().enumerate() {
                assert_eq!(analysis.cfg.block_at(b.insns.start), Some(id));
                assert_eq!(analysis.cfg.block_at_addr(&loaded.index, b.start), Some(id));
            }
        });
}

#[test]
fn every_edge_targets_a_block_leader() {
    Property::new("every_edge_targets_a_block_leader")
        .cases(10)
        .regressions(&[])
        .run(|rng| {
            let (loaded, analysis) = analyzed_case(rng);
            for e in &analysis.cfg.edges {
                assert!(e.from < analysis.cfg.blocks.len());
                assert!(e.to < analysis.cfg.blocks.len());
                let leader = analysis.cfg.blocks[e.to].start;
                assert_eq!(
                    analysis.cfg.block_at_addr(&loaded.index, leader),
                    Some(e.to),
                    "edge {e:?} must target a leader"
                );
            }
            // `successors(b)` is exactly the edges leaving `b`, in
            // `edges` order.
            for b in 0..analysis.cfg.blocks.len() {
                let want: Vec<Edge> = (analysis.cfg.edges.iter())
                    .filter(|e| e.from == b)
                    .copied()
                    .collect();
                assert_eq!(analysis.cfg.successors(b), &want[..], "block {b}");
            }
            // The indirect sites are exactly the indirect branches.
            let want: Vec<usize> = (loaded.insns.iter().enumerate())
                .filter(|(_, i)| i.kind.is_indirect_branch())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(analysis.cfg.indirect_sites, want);
        });
}

#[test]
fn reachability_is_a_fixpoint() {
    Property::new("reachability_is_a_fixpoint")
        .cases(10)
        .regressions(&[])
        .run(|rng| {
            let (loaded, analysis) = analyzed_case(rng);
            // Closure: an edge out of a reachable block reaches a
            // reachable block — one more propagation round changes
            // nothing.
            for e in &analysis.cfg.edges {
                if analysis.reachable[e.from] {
                    assert!(
                        analysis.reachable[e.to],
                        "edge {e:?} escapes the reachable set"
                    );
                }
            }
            // Roots are reachable whenever they start a block.
            for &root in &analysis.roots {
                if let Some(b) = analysis.cfg.block_at_addr(&loaded.index, root) {
                    assert!(analysis.reachable[b], "root {root:#x} must be reachable");
                }
            }
            // Recomputing from scratch is a no-op (determinism).
            let (again, _) = ProgramAnalysis::compute(&loaded);
            assert_eq!(analysis.reachable, again.reachable);
            assert_eq!(analysis.constants.resolved, again.constants.resolved);
        });
}

// ---- taint-lattice and interprocedural-fixpoint properties -------------

// Addresses matching the harness enclave at [0x10000, 0x11000).
const SECRET_A: u64 = 0x10100; // the loader's channel-key range
const SECRET_B: u64 = 0x10800; // a second source range
const SINK_OUT: u64 = 0x20000;

#[test]
fn taint_join_is_monotone_idempotent_and_commutative() {
    Property::new("taint_join_is_monotone_idempotent_and_commutative")
        .cases(50)
        .regressions(&[])
        .run(|rng| {
            let a = TaintSet::from_bits(rng.gen::<u64>());
            let b = TaintSet::from_bits(rng.gen::<u64>());
            let c = TaintSet::from_bits(rng.gen::<u64>());
            assert_eq!(a.join(a), a, "idempotent");
            assert_eq!(a.join(b), b.join(a), "commutative");
            assert_eq!(a.join(b).join(c), a.join(b.join(c)), "associative");
            assert!(a.is_subset(a.join(b)), "join is an upper bound");
            assert!(b.is_subset(a.join(b)), "join is an upper bound");

            let x = AbsTaint {
                concrete: a,
                inputs: rng.gen::<u16>(),
            };
            let y = AbsTaint {
                concrete: b,
                inputs: rng.gen::<u16>(),
            };
            assert_eq!(x.join(x), x, "AbsTaint join idempotent");
            assert_eq!(x.join(y), y.join(x), "AbsTaint join commutative");
            assert!(
                x.concrete.is_subset(x.join(y).concrete)
                    && (x.inputs & x.join(y).inputs) == x.inputs,
                "AbsTaint join is an upper bound"
            );
        });
}

fn random_abs_taint(rng: &mut ChaChaRng) -> AbsTaint {
    AbsTaint {
        concrete: TaintSet::from_bits(rng.gen::<u64>() & 0xff),
        inputs: rng.gen::<u16>(),
    }
}

fn random_cell_key(rng: &mut ChaChaRng) -> CellKey {
    match rng.gen_range(0u32..3) {
        0 => CellKey::Frame(-8 * rng.gen_range(1i64..5)),
        1 => CellKey::Frame(rng.gen_range(0i64..32) - 16),
        _ => CellKey::Abs(0x10000 + 8 * rng.gen_range(0u64..16)),
    }
}

fn random_mem_env(rng: &mut ChaChaRng) -> MemEnv {
    let mut env = MemEnv::new();
    for _ in 0..rng.gen_range(0usize..6) {
        env.write_strong(random_cell_key(rng), random_abs_taint(rng));
    }
    if rng.gen_range(0u32..2) == 0 {
        env.escape(random_abs_taint(rng));
    }
    env
}

/// `a ⊑ b` on the abstract-taint lattice.
fn taint_leq(a: AbsTaint, b: AbsTaint) -> bool {
    a.concrete.is_subset(b.concrete) && (a.inputs & b.inputs) == a.inputs
}

#[test]
fn mem_env_join_is_a_lattice_join() {
    Property::new("mem_env_join_is_a_lattice_join")
        .cases(50)
        .regressions(&[])
        .run(|rng| {
            let a = random_mem_env(rng);
            let b = random_mem_env(rng);
            let c = random_mem_env(rng);
            // Idempotent: a ⊔ a = a, and the change flag agrees.
            let mut aa = a.clone();
            assert!(!aa.join(&a), "self-join must report no growth");
            assert_eq!(aa, a, "idempotent");
            // Commutative and associative on the cell maps.
            let mut ab = a.clone();
            ab.join(&b);
            let mut ba = b.clone();
            ba.join(&a);
            assert_eq!(ab, ba, "commutative");
            let mut ab_c = ab.clone();
            ab_c.join(&c);
            let mut bc = b.clone();
            bc.join(&c);
            let mut a_bc = a.clone();
            a_bc.join(&bc);
            assert_eq!(ab_c, a_bc, "associative");
            // Upper bound: joining an operand into the join is a no-op,
            // and every observable read is monotone.
            let mut ab2 = ab.clone();
            assert!(!ab2.join(&a), "join is an upper bound of a");
            assert!(!ab2.join(&b), "join is an upper bound of b");
            for _ in 0..8 {
                let k = random_cell_key(rng);
                assert!(taint_leq(a.read(k), ab.read(k)), "reads grow monotonically");
                assert!(taint_leq(b.read(k), ab.read(k)), "reads grow monotonically");
            }
            assert!(taint_leq(a.frame_read(), ab.frame_read()));
            assert!(taint_leq(a.any_read(), ab.any_read()));
            assert!(taint_leq(b.caller_escape(), ab.caller_escape()));
        });
}

#[test]
fn weak_updates_over_approximate_strong_updates() {
    Property::new("weak_updates_over_approximate_strong_updates")
        .cases(50)
        .regressions(&[])
        .run(|rng| {
            let env = random_mem_env(rng);
            let key = random_cell_key(rng);
            let t = random_abs_taint(rng);
            // The analyzer strong-updates when it can name the cell and
            // escapes (weak-updates) when it cannot. Soundness of that
            // degradation: the weak environment observes at least as
            // much as the strong one at EVERY cell — including the one
            // the strong update (correctly) overwrote.
            let mut strong = env.clone();
            strong.write_strong(key, t);
            let mut weak = env.clone();
            weak.escape(t);
            for _ in 0..8 {
                let probe = random_cell_key(rng);
                assert!(
                    taint_leq(strong.read(probe), weak.read(probe)),
                    "weak update must over-approximate the strong update"
                );
            }
            assert!(taint_leq(strong.read(key), weak.read(key)));
            // A strong update is exact: the cell observes the written
            // label joined with the ambient component, nothing else.
            assert_eq!(strong.read(key), t.join(env.escaped()));
            // A weak update never loses what was already there.
            for _ in 0..8 {
                let probe = random_cell_key(rng);
                assert!(taint_leq(env.read(probe), weak.read(probe)));
            }
            assert!(taint_leq(t, weak.read(random_cell_key(rng))));
            // A load through an unresolved pointer observes at least
            // what a load from any named cell would.
            assert!(taint_leq(strong.read(key), strong.any_read()));
            assert!(taint_leq(strong.frame_read(), strong.any_read()));
        });
}

/// Builds a random interprocedural binary: `n` bundle-aligned functions
/// whose bodies mix secret loads, register shuffles, out-of-enclave
/// stores, and calls to arbitrary functions — self-calls and backward
/// calls included, so the call graph has recursion and non-trivial
/// SCCs.
fn random_call_graph_image(rng: &mut ChaChaRng) -> Vec<u8> {
    random_call_graph_image_with(rng, false)
}

/// Like [`random_call_graph_image`], but `spills` adds the memory-domain
/// shapes: stack spills/reloads, push/pop traffic, in-enclave scratch
/// stores, tainted stores through unresolvable pointers, `%rbp` frames
/// with `[rbp±d]` spills and reloads, and copies of `%rsp` shifted by
/// `sub $imm` used as load bases — so one slot is named through several
/// base registers.
fn random_call_graph_image_with(rng: &mut ChaChaRng, spills: bool) -> Vec<u8> {
    let n = rng.gen_range(3usize..8);
    let ops = if spills { 18 } else { 6 };
    let mut asm = Assembler::new();
    let labels: Vec<_> = (0..n).map(|_| asm.label()).collect();
    let mut offsets = Vec::with_capacity(n);
    for label in &labels {
        asm.align_to(BUNDLE_SIZE);
        offsets.push(asm.offset());
        asm.bind(*label);
        for _ in 0..rng.gen_range(1usize..4) {
            match rng.gen_range(0u32..ops) {
                0 => {
                    asm.movabs(Reg::Rbx, SECRET_A);
                    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
                }
                1 => {
                    asm.movabs(Reg::Rbx, SECRET_B);
                    asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rbx);
                }
                2 => asm.mov_rr64(Reg::Rdi, Reg::Rax),
                3 => {
                    asm.movabs(Reg::Rdx, SINK_OUT);
                    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rdx);
                }
                4 => asm.xor_rr32(Reg::Rax, Reg::Rax),
                5 => asm.mov_rr64(Reg::Rsi, Reg::Rcx),
                // Spill shapes (only with `spills`): launder through a
                // frame slot, push/pop, an in-enclave scratch cell, and
                // a store the constant lattice cannot resolve.
                6 => {
                    asm.mov_reg_to_rsp_disp8(Reg::Rax, 8);
                    asm.xor_rr32(Reg::Rax, Reg::Rax);
                    asm.mov_rsp_disp8_to_reg(Reg::Rax, 8);
                }
                7 => {
                    asm.push_reg(Reg::Rcx);
                    asm.pop_reg(Reg::Rdi);
                }
                8 => {
                    asm.movabs(Reg::Rdx, 0x10900);
                    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rdx);
                }
                9 => {
                    asm.movabs(Reg::Rdx, 0x10900);
                    asm.mov_mem_to_reg64(Reg::Rsi, Reg::Rdx);
                }
                10 => {
                    asm.movabs(Reg::Rdx, 0x10a00);
                    asm.mov_mem_to_reg64(Reg::Rdx, Reg::Rdx);
                    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx);
                }
                // Alias shapes: a frame-pointer prologue (left
                // unbalanced at random, so `%rbp` is sometimes not a
                // frame base), `[rbp±d]` traffic over slots the `%rsp`
                // spills also use, and a shifted `%rsp` copy as a load
                // base.
                11 => {
                    asm.push_reg(Reg::Rbp);
                    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
                }
                12 => asm.mov_reg_to_rbp_disp8(Reg::Rax, *pick(rng, &[-8i8, 8, 16])),
                13 => asm.mov_rbp_disp8_to_reg(Reg::Rcx, *pick(rng, &[-8i8, 8, 16])),
                14 => {
                    asm.mov_rr64(Reg::Rsi, Reg::Rsp);
                    asm.sub_ri8(Reg::Rsi, *pick(rng, &[-16i8, -8, 8]));
                    asm.mov_mem_to_reg64(Reg::Rdi, Reg::Rsi);
                }
                // Unclassified instructions: `test %eax, %eax`,
                // `movzx %cl, %ebp` (writes the frame pointer) and
                // `movzx %cl, %ecx`.
                15 => {
                    let other: &[&[u8]] =
                        &[&[0x85, 0xc0], &[0x0f, 0xb6, 0xe9], &[0x0f, 0xb6, 0xc9]];
                    let bytes: &[u8] = pick::<&[u8], _>(rng, other);
                    asm.emit_raw_insn(bytes);
                }
                // A `pop rbp` that may or may not match a `push rbp`.
                16 => asm.pop_reg(Reg::Rbp),
                // A store through a stack address taken by `lea` at a
                // random width (narrow ones truncate it).
                _ => {
                    asm.lea_rsp_disp8(
                        Reg::Rsi,
                        -8,
                        *pick(rng, &[Width::W16, Width::W32, Width::W64]),
                    );
                    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rsi);
                }
            }
        }
        for _ in 0..rng.gen_range(0usize..3) {
            let target = rng.gen_range(0usize..n);
            asm.call_label(labels[target]);
        }
        asm.ret();
    }
    let text = asm.finish();
    let len = text.len() as u64;
    let mut builder = ElfBuilder::new();
    builder.text(text).entry(0);
    for (i, &off) in offsets.iter().enumerate() {
        let end = offsets.get(i + 1).copied().unwrap_or(len);
        let name = ["_start", "f1", "f2", "f3", "f4", "f5", "f6", "f7"][i];
        builder.function(name, off, end - off);
    }
    builder.build()
}

fn sources_full() -> Vec<SecretRange> {
    vec![
        SecretRange {
            start: SECRET_A,
            end: SECRET_A + 8,
            class: SecretClass::ChannelKey,
        },
        SecretRange {
            start: SECRET_B,
            end: SECRET_B + 8,
            class: SecretClass::DecryptedContent,
        },
    ]
}

fn loaded_case(image: &[u8]) -> (SgxMachine, LoadedBinary) {
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 9,
    });
    let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
        .expect("eadd");
    m.eextend(id, 0x10000).expect("eextend");
    m.einit(id).expect("einit");
    m.eenter(id).expect("enter");
    let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("loads");
    (m, loaded)
}

#[test]
fn interprocedural_fixpoint_terminates_on_random_call_graphs() {
    Property::new("interprocedural_fixpoint_terminates_on_random_call_graphs")
        .cases(15)
        .regressions(&[])
        .run(|rng| {
            let image = random_call_graph_image(rng);
            let (_, loaded) = loaded_case(&image);
            let (analysis, _) = ProgramAnalysis::compute(&loaded);
            let (taint, cost) = TaintAnalysis::compute(&loaded, &analysis, &sources_full());
            // Completing at all is the property (recursion and SCCs
            // must not diverge); the counters sanity-check the shape.
            assert!(taint.scc_count >= 1);
            assert!(taint.steps > 0);
            assert!(cost > 0);
            // Determinism: recomputation reproduces the result exactly.
            let (again, cost2) = TaintAnalysis::compute(&loaded, &analysis, &sources_full());
            assert_eq!(taint.findings, again.findings);
            assert_eq!(taint.fixpoint_iterations, again.fixpoint_iterations);
            assert_eq!(cost, cost2);
        });
}

#[test]
fn removing_a_source_never_adds_a_leak() {
    Property::new("removing_a_source_never_adds_a_leak")
        .cases(15)
        .regressions(&[])
        .run(|rng| {
            let image = random_call_graph_image(rng);
            let (_, loaded) = loaded_case(&image);
            let (analysis, _) = ProgramAnalysis::compute(&loaded);
            let full = sources_full();
            let reduced = vec![full[0]];
            let (with_full, _) = TaintAnalysis::compute(&loaded, &analysis, &full);
            let (with_reduced, _) = TaintAnalysis::compute(&loaded, &analysis, &reduced);
            // Monotonicity in the source list: every finding site that
            // fires with fewer sources also fires with more.
            let full_sites: std::collections::BTreeSet<_> = with_full
                .findings
                .iter()
                .map(|f| (f.kind, f.addr))
                .collect();
            for f in &with_reduced.findings {
                assert!(
                    full_sites.contains(&(f.kind, f.addr)),
                    "finding {f:?} appeared only after REMOVING a source"
                );
            }
        });
}

#[test]
fn removing_a_source_never_adds_a_leak_through_spills() {
    Property::new("removing_a_source_never_adds_a_leak_through_spills")
        .cases(15)
        .regressions(&[])
        .run(|rng| {
            // Same monotonicity, but over binaries whose flows are
            // laundered through frame slots, push/pop traffic, scratch
            // cells, and unresolved stores — the memory domain must not
            // invent findings for sources that are not declared.
            let image = random_call_graph_image_with(rng, true);
            let (_, loaded) = loaded_case(&image);
            let (analysis, _) = ProgramAnalysis::compute(&loaded);
            let full = sources_full();
            let reduced = vec![full[0]];
            let (with_full, _) = TaintAnalysis::compute(&loaded, &analysis, &full);
            let (with_reduced, _) = TaintAnalysis::compute(&loaded, &analysis, &reduced);
            let full_sites: std::collections::BTreeSet<_> = with_full
                .findings
                .iter()
                .map(|f| (f.kind, f.addr))
                .collect();
            for f in &with_reduced.findings {
                assert!(
                    full_sites.contains(&(f.kind, f.addr)),
                    "finding {f:?} appeared only after REMOVING a source"
                );
            }
            // With no sources at all, the memory domain must go
            // completely quiet: no concrete label exists to spill,
            // escape, or flag.
            let (with_none, _) = TaintAnalysis::compute(&loaded, &analysis, &[]);
            assert!(
                with_none.findings.is_empty(),
                "sourceless analysis found {:?}",
                with_none.findings
            );
            // Determinism with the memory domain in play.
            let (again, _) = TaintAnalysis::compute(&loaded, &analysis, &full);
            assert_eq!(with_full.findings, again.findings);
            assert_eq!(with_full.spill_cells, again.spill_cells);
            assert_eq!(with_full.weak_updates, again.weak_updates);
        });
}
