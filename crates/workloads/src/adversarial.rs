//! Adversarial binaries: images that **pass** the load-time NaCl
//! validation but carry the evasions the analysis-backed policies must
//! reject.
//!
//! Each builder returns a complete ELF64 PIE. The load-time validator
//! only checks *direct* branch targets and bridges reachability across
//! `nop` padding, so an indirect jump whose target is computed through
//! `movabs` slips through — the constant-propagation pass in
//! `engarde-core`'s analysis engine is what catches it. The W|X image
//! abuses the segment table instead of the instruction stream.

use engarde_elf::build::{ElfBuilder, TEXT_VADDR};
use engarde_x86::encode::Assembler;
use engarde_x86::insn::Width;
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;

/// An adversarial image plus the addresses that make it interesting.
#[derive(Clone, Debug)]
pub struct AdversarialImage {
    /// The serialised ELF.
    pub image: Vec<u8>,
    /// The hidden target the indirect jump computes (0 for the W|X
    /// image, which has no indirect jump).
    pub hidden_target: u64,
}

fn wrap(text: Vec<u8>) -> Vec<u8> {
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, len)
        .entry(0)
        .build()
}

/// A jump into the **middle** of a decoded instruction: the entry
/// computes `victim + 2` with `movabs` and jumps there indirectly.
///
/// Linear-sweep disassembly decodes the victim `movabs` as one
/// instruction; the load-time validator sees no direct branch to check
/// and bridges reachability across the padding `nop`s, so the image
/// loads cleanly. Only constant propagation exposes that the jump
/// target is not an instruction start.
pub fn mid_instruction_jump() -> AdversarialImage {
    let mut asm = Assembler::new();
    // Victim lands at the second bundle; its immediate starts 2 bytes in
    // (REX + opcode), which is where the hidden jump aims.
    let victim_off = BUNDLE_SIZE;
    let hidden_target = TEXT_VADDR + victim_off + 2;
    asm.movabs(Reg::Rax, hidden_target);
    asm.jmp_reg(Reg::Rax);
    asm.align_to(BUNDLE_SIZE); // nop padding bridges reachability
    debug_assert_eq!(asm.offset(), victim_off);
    asm.movabs(Reg::Rcx, 0x1122_3344_5566_7788);
    asm.ret();
    AdversarialImage {
        image: wrap(asm.finish()),
        hidden_target,
    }
}

/// Overlapping instruction streams: the victim `movabs` immediate
/// *contains* a complete hidden instruction sequence
/// (`xor %eax, %eax; ret`), and the indirect jump targets the first
/// immediate byte. The linear sweep decodes only the outer `movabs`;
/// at run time the jump would execute the hidden bytes — an instruction
/// stream the inspector never saw.
pub fn overlapping_instructions() -> AdversarialImage {
    // 31 c0 = xor %eax,%eax; c3 = ret; 90-padding fills the immediate.
    let hidden_stream: [u8; 8] = [0x31, 0xc0, 0xc3, 0x90, 0x90, 0x90, 0x90, 0x90];
    let mut asm = Assembler::new();
    let victim_off = BUNDLE_SIZE;
    let hidden_target = TEXT_VADDR + victim_off + 2;
    asm.movabs(Reg::Rax, hidden_target);
    asm.jmp_reg(Reg::Rax);
    asm.align_to(BUNDLE_SIZE);
    debug_assert_eq!(asm.offset(), victim_off);
    asm.movabs(Reg::Rcx, u64::from_le_bytes(hidden_stream));
    asm.ret();
    AdversarialImage {
        image: wrap(asm.finish()),
        hidden_target,
    }
}

/// A structurally clean program whose text segment is mapped writable
/// **and** executable — the static request for dynamic code generation
/// the `wx-segments` policy bans.
pub fn wx_segment() -> AdversarialImage {
    let mut asm = Assembler::new();
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    let image = ElfBuilder::new()
        .text(text)
        .function("_start", 0, len)
        .entry(0)
        .wx_text()
        .build();
    AdversarialImage {
        image,
        hidden_target: 0,
    }
}

// ---- secret-leakage fixtures ------------------------------------------
//
// Each generator below takes the secret and sink addresses explicitly —
// the workloads crate knows nothing about enclave geometry, so the test
// (or bench) supplies the key-state address of *its* machine and a sink
// either outside the enclave (leaking) or inside it (the compliant
// near-miss twin). All fixtures pass load-time NaCl validation; only
// the interprocedural taint pass tells the pairs apart.

/// A staged register leak: loads a secret qword, launders it through a
/// register copy, and stores it to `sink` — out-of-enclave `sink` makes
/// this the leaking fixture, in-enclave `sink` its compliant twin.
pub fn secret_register_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_rr64(Reg::Rcx, Reg::Rax); // staged copy
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    wrap(asm.finish())
}

/// A secret-dependent branch: loads a secret byte-bearing qword and
/// conditions a `jne` on it — the page-fault/branch-predictor
/// side-channel shape the secret-dependent-branch policy rejects.
pub fn secret_branch(secret: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.xor_rr32(Reg::Rcx, Reg::Rcx);
    asm.cmp_rr64(Reg::Rax, Reg::Rcx);
    let done = asm.label();
    asm.jne_label(done);
    asm.nop();
    asm.bind(done);
    asm.ret();
    wrap(asm.finish())
}

/// The compliant twin of [`secret_branch`]: identical shape, but the
/// compared value is a constant — no secret enters the flags.
pub fn constant_branch() -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_ri32(Reg::Rax, 0x5a);
    asm.xor_rr32(Reg::Rcx, Reg::Rcx);
    asm.cmp_rr64(Reg::Rax, Reg::Rcx);
    let done = asm.label();
    asm.jne_label(done);
    asm.nop();
    asm.bind(done);
    asm.ret();
    wrap(asm.finish())
}

/// An interprocedural leak laundered through two call hops:
/// `_start` loads the secret into `%rdi` and calls `f`; `f` moves it to
/// `%rsi` and calls `g`; `g` stores `%rsi` to `sink`. No single
/// function both touches the secret and writes out — only bottom-up
/// call-graph summaries connect the flow. An in-enclave `sink` yields
/// the compliant twin.
pub fn interprocedural_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let f = asm.label();
    let g = asm.label();
    // _start
    asm.movabs(Reg::Rdi, secret);
    asm.mov_mem_to_reg64(Reg::Rdi, Reg::Rdi); // rdi = *secret
    asm.call_label(f);
    asm.ret();
    asm.align_to(BUNDLE_SIZE);
    let f_off = asm.offset();
    asm.bind(f);
    asm.mov_rr64(Reg::Rsi, Reg::Rdi);
    asm.call_label(g);
    asm.ret();
    asm.align_to(BUNDLE_SIZE);
    let g_off = asm.offset();
    asm.bind(g);
    asm.movabs(Reg::Rbx, sink);
    asm.mov_reg_to_mem64(Reg::Rsi, Reg::Rbx); // *sink = rsi
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, f_off)
        .function("f", f_off, g_off - f_off)
        .function("g", g_off, len - g_off)
        .entry(0)
        .build()
}

// ---- spill-laundering fixtures ----------------------------------------
//
// The PR-10 soundness fixtures: secrets parked in memory and reloaded,
// the flows a register-only taint pass loses. Each leaking shape has a
// compliant near-miss twin so the tests pin both directions of the
// memory-domain fix.

/// A register leak laundered through a stack spill: the secret is
/// spilled to `8(%rsp)`, the register is destroyed with the zeroing
/// idiom, and the reload feeds the store to `sink`. A register-only
/// taint pass sees the xor kill the label and signs a false PASS; the
/// spill-aware memory domain restores it at the reload. Out-of-enclave
/// `sink` leaks; in-enclave `sink` is the compliant twin.
pub fn stack_spill_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rsp_disp8(Reg::Rax, 8); // spill
    asm.xor_rr32(Reg::Rax, Reg::Rax); // launder the register
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, 8); // reload
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    wrap(asm.finish())
}

/// A secret-dependent branch on a **reloaded spill**: same laundering
/// shape as [`stack_spill_leak`], but the reloaded value feeds a
/// compare + `jne` instead of a store — the side-channel twin of the
/// spill leak.
pub fn spill_branch(secret: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rsp_disp8(Reg::Rax, 8);
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, 8);
    asm.xor_rr32(Reg::Rdx, Reg::Rdx);
    asm.cmp_rr64(Reg::Rcx, Reg::Rdx);
    let done = asm.label();
    asm.jne_label(done);
    asm.nop();
    asm.bind(done);
    asm.ret();
    wrap(asm.finish())
}

/// The compliant twin of [`spill_branch`]: identical spill/reload
/// choreography, but the spilled value is a constant — the reload
/// carries no taint into the flags.
pub fn constant_spill_branch() -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_ri32(Reg::Rax, 0x5a);
    asm.mov_reg_to_rsp_disp8(Reg::Rax, 8);
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, 8);
    asm.xor_rr32(Reg::Rdx, Reg::Rdx);
    asm.cmp_rr64(Reg::Rcx, Reg::Rdx);
    let done = asm.label();
    asm.jne_label(done);
    asm.nop();
    asm.bind(done);
    asm.ret();
    wrap(asm.finish())
}

/// An interprocedural spill escape: `f` loads the secret, parks it at
/// the in-enclave `scratch` address, and **zeroes every register it
/// touched** before returning — its register-level summary is clean.
/// `_start` then reloads `scratch` and stores to `sink`. Only the
/// caller-visible spill-escape component of `f`'s summary connects the
/// flow; a register-only pass signs a false PASS. In-enclave `sink`
/// yields the compliant twin.
pub fn interprocedural_spill_escape(secret: u64, scratch: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let f = asm.label();
    // _start
    asm.call_label(f);
    asm.movabs(Reg::Rbx, scratch);
    asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rbx); // rcx = *scratch (the parked secret)
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    asm.align_to(BUNDLE_SIZE);
    let f_off = asm.offset();
    asm.bind(f);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.movabs(Reg::Rcx, scratch);
    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rcx); // *scratch = rax
    asm.xor_rr32(Reg::Rax, Reg::Rax); // scrub the registers:
    asm.xor_rr32(Reg::Rbx, Reg::Rbx); // the *only* surviving copy
    asm.xor_rr32(Reg::Rcx, Reg::Rcx); // lives in memory
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, f_off)
        .function("f", f_off, len - f_off)
        .entry(0)
        .build()
}

// ---- stack-alias fixtures ---------------------------------------------
//
// One stack slot, several names: a spill through one base register and
// a reload through another must meet in the same cell, and a base
// register that is not a known stack address must not name one. Each
// leaking shape has a compliant twin, described in its doc: the two
// `reload` fixtures leak with `reload == -8` (the spilled slot) and
// pass with `reload == -16` (a slot the secret never touched), so the
// same out-of-enclave store carries nothing secret.

/// Spill through the frame pointer, reload through the stack pointer:
/// `mov rbp, rsp`, the secret goes to `-8(%rbp)`, the register is
/// zeroed, and `reload(%rsp)` feeds the store to `sink`. With
/// `reload == -8` both names denote one slot — a taint pass that keys
/// `%rbp` and `%rsp` slots apart signs a false PASS.
pub fn rbp_spill_rsp_reload(secret: u64, sink: u64, reload: i8) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_rr64(Reg::Rbp, Reg::Rsp); // rbp aliases rsp
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // spill via %rbp
    asm.xor_rr32(Reg::Rax, Reg::Rax); // launder the register
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, reload); // reload via %rsp
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    wrap(asm.finish())
}

/// Spill through the stack pointer, reload through a copy of it: the
/// secret goes to `-8(%rsp)`, then `mov rsi, rsp; sub rsi, -reload;
/// mov rcx, (%rsi)` feeds the store to `sink`. With `reload == -8` the
/// copy points at the spilled slot — a taint pass that only names
/// `%rsp`-based slots treats `%rsi` as an unknown pointer and signs a
/// false PASS.
pub fn rsp_spill_copy_reload(secret: u64, sink: u64, reload: i8) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rsp_disp8(Reg::Rax, -8); // spill via %rsp
    asm.xor_rr32(Reg::Rax, Reg::Rax); // launder the register
    asm.mov_rr64(Reg::Rsi, Reg::Rsp); // rsi aliases rsp…
    asm.sub_ri8(Reg::Rsi, reload.wrapping_neg()); // …shifted to the slot
    asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rsi); // reload via %rsi
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    wrap(asm.finish())
}

/// `movzx %cl, %dest32` — an instruction the decoder leaves
/// unclassified, reporting only that it writes `dest`.
fn movzx_from_cl(asm: &mut Assembler, dest: Reg) {
    assert!(!dest.needs_rex_bit(), "legacy registers only");
    asm.emit_raw_insn(&[0x0f, 0xb6, 0xc1 | dest.low3() << 3]);
}

/// A frame-pointer spill and reload with an unclassified instruction
/// between them: after `push rbp; mov rbp, rsp` the secret goes to
/// `-8(%rbp)`, then a `movzx %cl, clobbered` precedes the `-8(%rbp)`
/// reload that feeds the store to `sink`. With `clobbered` another
/// register, `%rbp` keeps naming the spilled slot; with `clobbered ==
/// Reg::Rbp` the reload is through an unknown pointer, which may alias
/// the slot — a taint pass that lets it observe only escaped memory
/// signs a false PASS. Out-of-enclave `sink` leaks; in-enclave `sink`
/// is the compliant twin.
pub fn rbp_spill_reload_across_other(secret: u64, sink: u64, clobbered: Reg) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // spill via %rbp
    asm.xor_rr32(Reg::Rax, Reg::Rax); // launder the register
    movzx_from_cl(&mut asm, clobbered); // unclassified
    asm.mov_rbp_disp8_to_reg(Reg::Rcx, -8); // reload via %rbp
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    wrap(asm.finish())
}

/// A tainted store through a frame pointer loaded from memory:
/// `mov rbp, (ptr)` makes `%rbp` an arbitrary pointer, so `mov
/// %rax, 8(%rbp)` may write the secret anywhere. A taint pass that
/// assumes `%rbp` is a stable frame base keys the write as a private
/// frame slot and signs a false PASS; the same store through `%rdi`
/// ([`unresolved_pointer_store`]) is rejected.
pub fn untrusted_rbp_store(secret: u64, ptr: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rcx, ptr);
    asm.mov_mem_to_reg64(Reg::Rbp, Reg::Rcx); // rbp = *ptr (unresolvable)
    rbp_secret_store(&mut asm, secret);
    wrap(asm.finish())
}

/// The compliant twin of [`untrusted_rbp_store`]: the same store, but
/// `%rbp` is the frame base (`mov rbp, rsp`), so the secret lands in a
/// known stack slot — the ordinary frame-pointer spill every compiled
/// function performs, which strict mode must keep passing.
pub fn framed_rbp_store(secret: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_rr64(Reg::Rbp, Reg::Rsp); // rbp is the frame base
    rbp_secret_store(&mut asm, secret);
    wrap(asm.finish())
}

/// A frame-pointer spill behind an unclassified instruction: after
/// `push rbp; mov rbp, rsp` the secret is loaded, then either `test
/// %eax, %eax` (writes only flags) or, with `clobber_rbp`, `movzx %cl,
/// %ebp` precedes the `-8(%rbp)` spill. The `test` form is the ordinary
/// compiled spill strict mode must keep passing; after the `movzx`,
/// `%rbp` is an arbitrary value and the spill an unresolved store.
pub fn rbp_store_after_other(secret: u64, clobber_rbp: bool) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    if clobber_rbp {
        movzx_from_cl(&mut asm, Reg::Rbp);
    } else {
        asm.emit_raw_insn(&[0x85, 0xc0]); // test %eax, %eax
    }
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // spill via %rbp
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    wrap(asm.finish())
}

/// [`untrusted_rbp_store`] with the `%rbp` load in a callee: `_start`
/// sets up a frame (`push rbp; mov rbp, rsp`), calls `g`, then stores
/// the secret to `-8(%rbp)`. `g` loads `%rbp` from `ptr`; a taint pass
/// that assumes every callee preserves `%rbp` names the store a frame
/// slot and signs a false PASS. With `restore`, `g` saves and restores
/// `%rbp` around the load — the compliant twin.
pub fn callee_untrusted_rbp_store(secret: u64, ptr: u64, restore: bool) -> Vec<u8> {
    let mut asm = Assembler::new();
    let g = asm.label();
    // _start
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.call_label(g);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // *(rbp-8) = rax
    asm.pop_reg(Reg::Rbp);
    asm.ret();
    asm.align_to(BUNDLE_SIZE);
    let g_off = asm.offset();
    asm.bind(g);
    if restore {
        asm.push_reg(Reg::Rbp);
    }
    asm.movabs(Reg::Rcx, ptr);
    asm.mov_mem_to_reg64(Reg::Rbp, Reg::Rcx); // rbp = *ptr (unresolvable)
    if restore {
        asm.pop_reg(Reg::Rbp);
    }
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, g_off)
        .function("g", g_off, len - g_off)
        .entry(0)
        .build()
}

/// A secret parked in the caller's frame by its callee: `_start`
/// reserves 16 bytes (`sub rsp, 16`) and calls `f`, which stores the
/// secret to `8(%rsp)` — `_start`'s `(%rsp)` — and scrubs its
/// registers. `_start` then reloads `(%rsp)` and stores it to `sink`.
/// A taint pass that treats every stack slot a callee writes as dead on
/// return signs a false PASS. Out-of-enclave `sink` leaks; in-enclave
/// `sink` is the compliant twin.
pub fn caller_frame_spill_by_callee(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let f = asm.label();
    // _start
    asm.sub_ri8(Reg::Rsp, 16);
    asm.call_label(f);
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, 0); // reload the caller's own slot
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.add_ri8(Reg::Rsp, 16);
    asm.ret();
    asm.align_to(BUNDLE_SIZE);
    let f_off = asm.offset();
    asm.bind(f);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rsp_disp8(Reg::Rax, 8); // the caller's (%rsp) = rax
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.xor_rr32(Reg::Rbx, Reg::Rbx);
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, f_off)
        .function("f", f_off, len - f_off)
        .entry(0)
        .build()
}

/// A `push` through a stack pointer aimed at a constant address: the
/// secret is loaded, `movabs rsp, sp` and `push rax` writes it to
/// `sp - 8`. A taint pass that treats every `push` as a stack-slot
/// write signs a false PASS. `sp` just past an out-of-enclave address
/// leaks; `sp` inside the enclave is the compliant twin.
pub fn constant_rsp_push(secret: u64, sp: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.movabs(Reg::Rsp, sp);
    asm.push_reg(Reg::Rax); // *(sp - 8) = rax
    asm.ret();
    wrap(asm.finish())
}

/// A `pop` through a stack pointer aimed at the secret: `movabs rsp,
/// secret; pop rax` loads it, and the store to `sink` follows. A taint
/// pass that treats every `pop` as a stack-slot read signs a false
/// PASS. Out-of-enclave `sink` leaks; in-enclave `sink` is the
/// compliant twin.
pub fn constant_rsp_pop(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rsp, secret);
    asm.pop_reg(Reg::Rax); // rax = *secret
    asm.movabs(Reg::Rdx, sink);
    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rdx); // *sink = rax
    asm.ret();
    wrap(asm.finish())
}

/// A tainted store through a truncated stack address: `%rax` holds
/// `ptr`, then `lea -8(%rsp)` at operand width `width` and a store of
/// the secret through `%rax`. A 16-bit `lea` replaces only the low word
/// (`%rax` stays near `ptr`), a 32-bit one drops the high half; neither
/// leaves a stack address, and a taint pass that gives `%rax` the slot's
/// offset whatever the width signs a false PASS. [`Width::W64`] is the
/// compliant twin: the secret lands in a frame slot.
pub fn narrow_lea_store(secret: u64, ptr: u64, width: Width) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rax, ptr);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rbx); // rcx = *secret
    asm.lea_rsp_disp8(Reg::Rax, -8, width);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rax); // *rax = rcx
    asm.ret();
    wrap(asm.finish())
}

/// [`narrow_lea_store`] with a RIP-relative `lea` of `target`: `%rax`
/// holds `ptr`, then `lea target(%rip)` at operand width `width` and a
/// store of the secret through `%rax`. A 16-bit `lea` replaces only the
/// low word of `ptr`, so a constant lattice that takes the `lea`'s
/// target whatever the width names `target`'s cell and signs a false
/// PASS. [`Width::W64`] and [`Width::W32`] (for a `target` that fits in
/// 32 bits) leave `target` itself — the compliant twins when `target`
/// lies inside the enclave.
pub fn narrow_rip_lea_store(secret: u64, ptr: u64, target: u64, width: Width) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rax, ptr);
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rbx); // rcx = *secret
    let mut lea = match width {
        Width::W64 => vec![0x48, 0x8d, 0x05],
        Width::W32 => vec![0x8d, 0x05],
        _ => vec![0x66, 0x8d, 0x05],
    };
    let len = lea.len() as u64 + 4;
    // No bundle padding moves the lea: its end is known before it is emitted.
    assert!(asm.offset() % BUNDLE_SIZE + len <= BUNDLE_SIZE);
    let end = TEXT_VADDR + asm.offset() + len;
    lea.extend((target.wrapping_sub(end) as i32).to_le_bytes());
    asm.emit_raw_insn(&lea); // lea target(%rip), %rax/%eax/%ax
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rax); // *rax = rcx
    asm.ret();
    wrap(asm.finish())
}

/// `*(rbp+8) = *secret; ret` — the tail [`untrusted_rbp_store`] and its
/// twin share.
fn rbp_secret_store(asm: &mut Assembler, secret: u64) {
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rbp_disp8(Reg::Rax, 8); // *(rbp+8) = rax
    asm.ret();
}

/// A tainted store through a pointer the constant lattice cannot
/// resolve: the pointer itself is loaded from memory, so the analysis
/// cannot bound the write to enclave memory. Strict secret-leakage
/// rejects it as an unresolved-store sink candidate; the pre-fix
/// (lenient) surface silently dropped the label — the pinned false
/// PASS.
pub fn unresolved_pointer_store(secret: u64, ptr: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.movabs(Reg::Rcx, ptr);
    asm.mov_mem_to_reg64(Reg::Rdx, Reg::Rcx); // rdx = *ptr (unresolvable)
    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rdx); // *rdx = rax
    asm.ret();
    wrap(asm.finish())
}

/// The compliant twin of [`unresolved_pointer_store`]: the same
/// unresolved pointer is written through, but the stored value is a
/// constant — nothing secret is at risk, so even strict mode passes.
pub fn unresolved_pointer_store_clean(ptr: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_ri32(Reg::Rax, 0x5a);
    asm.movabs(Reg::Rcx, ptr);
    asm.mov_mem_to_reg64(Reg::Rdx, Reg::Rcx); // rdx = *ptr (unresolvable)
    asm.mov_reg_to_mem64(Reg::Rax, Reg::Rdx); // *rdx = constant
    asm.ret();
    wrap(asm.finish())
}

// ---- data-effect fixtures ---------------------------------------------
//
// Data flows the typed instruction forms do not spell out: a
// zero-extending load, an exchange with memory, a flag copied into a
// register, a high-byte register, a partial register write, an operand
// with no base register, a segment-overridden store, and a `leave`
// epilogue. A taint pass that models only the typed forms signs a
// false PASS on each leaking shape; each has a compliant twin.

/// `*sink = src; ret`, through `%rsi`.
fn store_out(asm: &mut Assembler, src: Reg, sink: u64) {
    asm.movabs(Reg::Rsi, sink);
    asm.mov_reg_to_mem64(src, Reg::Rsi);
    asm.ret();
}

/// `rax = *secret`, through `%rbx`.
fn load_secret(asm: &mut Assembler, secret: u64) {
    asm.movabs(Reg::Rbx, secret);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
}

/// A one-instruction secret load: `movzx (%rbx), %eax` with `%rbx =
/// secret`, then the store to `sink`. Out-of-enclave `sink` leaks;
/// in-enclave `sink` is the compliant twin.
pub fn movzx_load_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.movabs(Reg::Rbx, secret);
    asm.emit_raw_insn(&[0x0f, 0xb6, 0x03]); // movzx (%rbx), %eax
    store_out(&mut asm, Reg::Rax, sink);
    wrap(asm.finish())
}

/// A secret stored by an exchange: `xchg %rax, (%rdx)` with `%rax =
/// *secret` and `%rdx = sink`. Out-of-enclave `sink` leaks; in-enclave
/// `sink` is the compliant twin.
pub fn xchg_store_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    load_secret(&mut asm, secret);
    asm.movabs(Reg::Rdx, sink);
    asm.emit_raw_insn(&[0x48, 0x87, 0x02]); // xchg %rax, (%rdx)
    asm.ret();
    wrap(asm.finish())
}

/// A secret comparison copied out through the flags: `cmp %rcx, %rax`
/// on the secret, `sete %dl`, and the store of `%rdx` to `sink`.
/// Out-of-enclave `sink` leaks; in-enclave `sink` is the compliant
/// twin.
pub fn setcc_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    load_secret(&mut asm, secret);
    asm.cmp_rr64(Reg::Rax, Reg::Rcx);
    asm.emit_raw_insn(&[0x0f, 0x94, 0xc2]); // sete %dl
    store_out(&mut asm, Reg::Rdx, sink);
    wrap(asm.finish())
}

/// A secret byte loaded into `%ah`: `xor %eax, %eax; mov (%rbx), %ah`
/// with `%rbx = secret`, then the store of `%rax` to `sink`. Without a
/// REX prefix, register 4 of an 8-bit operand is `%ah`, not `%spl`.
/// Out-of-enclave `sink` leaks; in-enclave `sink` is the compliant
/// twin.
pub fn high_byte_load_leak(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.movabs(Reg::Rbx, secret);
    asm.emit_raw_insn(&[0x8a, 0x23]); // mov (%rbx), %ah
    store_out(&mut asm, Reg::Rax, sink);
    wrap(asm.finish())
}

/// A secret partly overwritten before it is stored out: `%rax =
/// *secret`, then `mov $0x5a` into `%al` ([`Width::W8`], which keeps
/// the upper 56 secret bits — the leak) or into `%eax`
/// ([`Width::W32`], which zero-extends — the compliant twin), then the
/// store of `%rax` to `sink`.
pub fn partial_write_leak(secret: u64, sink: u64, width: Width) -> Vec<u8> {
    let mut asm = Assembler::new();
    load_secret(&mut asm, secret);
    match width {
        Width::W8 => asm.emit_raw_insn(&[0xb0, 0x5a]), // mov $0x5a, %al
        _ => asm.mov_ri32(Reg::Rax, 0x5a),
    }
    store_out(&mut asm, Reg::Rax, sink);
    wrap(asm.finish())
}

/// `mov addr, %rax` through an operand with no base and no index
/// register (SIB `0x25`, absolute `disp32`).
fn mov_absolute_to_rax(asm: &mut Assembler, addr: u64) {
    let disp = i32::try_from(addr).expect("absolute operands take a 31-bit address");
    let mut bytes = vec![0x48, 0x8b, 0x04, 0x25];
    bytes.extend(disp.to_le_bytes());
    asm.emit_raw_insn(&bytes);
}

/// An absolute load stored out: `mov addr, %rax` (no base register),
/// then the store to `sink`. `addr` in a secret range leaks to an
/// out-of-enclave `sink`; a clean in-enclave `addr` is the compliant
/// twin.
pub fn absolute_load_leak(addr: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    mov_absolute_to_rax(&mut asm, addr);
    store_out(&mut asm, Reg::Rax, sink);
    wrap(asm.finish())
}

/// An absolute load feeding a branch: `mov addr, %rax` (no base
/// register), `cmp`, `jne`. `addr` in a secret range is a
/// secret-dependent branch; a clean in-enclave `addr` is the compliant
/// twin.
pub fn absolute_load_branch(addr: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    mov_absolute_to_rax(&mut asm, addr);
    asm.xor_rr32(Reg::Rcx, Reg::Rcx);
    asm.cmp_rr64(Reg::Rax, Reg::Rcx);
    let done = asm.label();
    asm.jne_label(done);
    asm.nop();
    asm.bind(done);
    asm.ret();
    wrap(asm.finish())
}

/// A secret stored through a segment override: `%rax = *secret`, then
/// `mov %rax, %gs:(%rdx)` with `%rdx = sink`. The `%gs` base is not
/// known, so the write may land anywhere even when `sink` lies inside
/// the enclave. `gs == false` drops the override — the compliant twin
/// for an in-enclave `sink`.
pub fn segment_store_leak(secret: u64, sink: u64, gs: bool) -> Vec<u8> {
    let mut asm = Assembler::new();
    load_secret(&mut asm, secret);
    asm.movabs(Reg::Rdx, sink);
    let store: &[u8] = if gs {
        &[0x65, 0x48, 0x89, 0x02] // mov %rax, %gs:(%rdx)
    } else {
        &[0x48, 0x89, 0x02] // mov %rax, (%rdx)
    };
    asm.emit_raw_insn(store);
    asm.ret();
    wrap(asm.finish())
}

/// A compiled-style frame-pointer spill after a call to a `leave`
/// epilogue: `f` sets up a frame (`push rbp; mov rbp, rsp; sub rsp,
/// 16`), spills its argument, and returns through `leave; ret`, which
/// gives `%rbp` back. `_start` then spills the secret to `-8(%rbp)` of
/// its own frame, zeroes the register, reloads the slot and stores it
/// to `sink`. Out-of-enclave `sink` leaks; in-enclave `sink` is the
/// compliant twin, which a taint pass that thinks `leave` changes
/// `%rbp` rejects as an unresolved store.
pub fn leave_epilogue_spill(secret: u64, sink: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let f = asm.label();
    // _start
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.call_label(f);
    load_secret(&mut asm, secret);
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // spill via %rbp
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.mov_rbp_disp8_to_reg(Reg::Rcx, -8); // reload
    asm.pop_reg(Reg::Rbp);
    store_out(&mut asm, Reg::Rcx, sink);
    asm.align_to(BUNDLE_SIZE);
    let f_off = asm.offset();
    asm.bind(f);
    asm.push_reg(Reg::Rbp);
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.sub_ri8(Reg::Rsp, 16);
    asm.mov_reg_to_rbp_disp8(Reg::Rdi, -8);
    asm.emit_raw_insn(&[0xc9]); // leave
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, f_off)
        .function("f", f_off, len - f_off)
        .entry(0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_elf::parse::ElfFile;
    use engarde_x86::decode::decode_all;
    use engarde_x86::validate::Validator;

    fn loads_cleanly(image: &[u8]) {
        let elf = ElfFile::parse(image).expect("parses");
        elf.require_pie().expect("PIE");
        let text = elf.section(".text").expect(".text");
        let insns = decode_all(&text.data, text.header.sh_addr).expect("decodes");
        let roots: Vec<u64> = elf.function_symbols().map(|s| s.symbol.st_value).collect();
        Validator::new()
            .validate(&insns, elf.header().e_entry, &roots)
            .expect("passes load-time NaCl validation");
    }

    #[test]
    fn mid_instruction_jump_passes_load_time_validation() {
        let adv = mid_instruction_jump();
        loads_cleanly(&adv.image);
        // The hidden target is NOT an instruction start.
        let elf = ElfFile::parse(&adv.image).expect("parses");
        let text = elf.section(".text").expect(".text");
        let insns = decode_all(&text.data, text.header.sh_addr).expect("decodes");
        assert!(insns.iter().all(|i| i.addr != adv.hidden_target));
        assert!(insns
            .iter()
            .any(|i| i.addr < adv.hidden_target && adv.hidden_target < i.end()));
    }

    #[test]
    fn overlapping_stream_is_decodable_at_the_hidden_target() {
        let adv = overlapping_instructions();
        loads_cleanly(&adv.image);
        let elf = ElfFile::parse(&adv.image).expect("parses");
        let text = elf.section(".text").expect(".text");
        // Decode starting at the hidden target: a complete, valid
        // second stream overlapping the victim movabs.
        let off = (adv.hidden_target - text.header.sh_addr) as usize;
        let hidden =
            decode_all(&text.data[off..off + 3], adv.hidden_target).expect("hidden stream decodes");
        assert_eq!(hidden.len(), 2, "xor; ret");
        assert!(matches!(hidden[1].kind, engarde_x86::insn::InsnKind::Ret));
    }

    #[test]
    fn leakage_fixtures_pass_load_time_validation() {
        // Geometry-agnostic here: any addresses produce the same
        // instruction stream, and validation never inspects operands.
        for image in [
            secret_register_leak(0x10100, 0x20000),
            secret_register_leak(0x10100, 0x10800),
            secret_branch(0x10100),
            constant_branch(),
            interprocedural_leak(0x10100, 0x20000),
            interprocedural_leak(0x10100, 0x10800),
        ] {
            loads_cleanly(&image);
        }
    }

    #[test]
    fn spill_fixtures_pass_load_time_validation() {
        for image in [
            stack_spill_leak(0x10100, 0x20000),
            stack_spill_leak(0x10100, 0x10800),
            spill_branch(0x10100),
            constant_spill_branch(),
            interprocedural_spill_escape(0x10100, 0x10900, 0x20000),
            interprocedural_spill_escape(0x10100, 0x10900, 0x10800),
            unresolved_pointer_store(0x10100, 0x10a00),
            unresolved_pointer_store_clean(0x10a00),
            rbp_spill_rsp_reload(0x10100, 0x20000, -8),
            rbp_spill_rsp_reload(0x10100, 0x20000, -16),
            rsp_spill_copy_reload(0x10100, 0x20000, -8),
            rsp_spill_copy_reload(0x10100, 0x20000, -16),
            untrusted_rbp_store(0x10100, 0x10a00),
            framed_rbp_store(0x10100),
            rbp_spill_reload_across_other(0x10100, 0x20000, Reg::Rcx),
            rbp_spill_reload_across_other(0x10100, 0x10800, Reg::Rbp),
            rbp_store_after_other(0x10100, true),
            rbp_store_after_other(0x10100, false),
            callee_untrusted_rbp_store(0x10100, 0x10a00, false),
            callee_untrusted_rbp_store(0x10100, 0x10a00, true),
            narrow_lea_store(0x10100, 0x20000, Width::W16),
            narrow_lea_store(0x10100, 0x20000, Width::W32),
            narrow_lea_store(0x10100, 0x20000, Width::W64),
            narrow_rip_lea_store(0x10100, 0x20000, 0x10800, Width::W16),
            narrow_rip_lea_store(0x10100, 0x20000, 0x10800, Width::W64),
            caller_frame_spill_by_callee(0x10100, 0x20000),
            caller_frame_spill_by_callee(0x10100, 0x10800),
            constant_rsp_push(0x10100, 0x20008),
            constant_rsp_push(0x10100, 0x10808),
            constant_rsp_pop(0x10100, 0x20000),
            constant_rsp_pop(0x10100, 0x10800),
            movzx_load_leak(0x10100, 0x20000),
            movzx_load_leak(0x10100, 0x10800),
            xchg_store_leak(0x10100, 0x20000),
            xchg_store_leak(0x10100, 0x10800),
            setcc_leak(0x10100, 0x20000),
            setcc_leak(0x10100, 0x10800),
            high_byte_load_leak(0x10100, 0x20000),
            high_byte_load_leak(0x10100, 0x10800),
            partial_write_leak(0x10100, 0x20000, Width::W8),
            partial_write_leak(0x10100, 0x20000, Width::W32),
            absolute_load_leak(0x10100, 0x20000),
            absolute_load_leak(0x10900, 0x20000),
            absolute_load_branch(0x10100),
            absolute_load_branch(0x10900),
            segment_store_leak(0x10100, 0x10800, true),
            segment_store_leak(0x10100, 0x10800, false),
            leave_epilogue_spill(0x10100, 0x20000),
            leave_epilogue_spill(0x10100, 0x10800),
        ] {
            loads_cleanly(&image);
        }
    }

    #[test]
    fn spill_escape_fixture_has_two_function_symbols() {
        let image = interprocedural_spill_escape(0x10100, 0x10900, 0x20000);
        let elf = ElfFile::parse(&image).expect("parses");
        let names: Vec<String> = elf.function_symbols().map(|s| s.name.to_string()).collect();
        assert_eq!(names, ["_start", "f"]);
        for sym in elf.function_symbols().skip(1) {
            assert_eq!(sym.symbol.st_value % BUNDLE_SIZE, 0);
        }
    }

    #[test]
    fn interprocedural_fixture_has_three_function_symbols() {
        let image = interprocedural_leak(0x10100, 0x20000);
        let elf = ElfFile::parse(&image).expect("parses");
        let names: Vec<String> = elf.function_symbols().map(|s| s.name.to_string()).collect();
        assert_eq!(names, ["_start", "f", "g"]);
        // f and g start on bundle boundaries, so calls target bundle
        // entries the validator accepts as roots.
        for sym in elf.function_symbols().skip(1) {
            assert_eq!(sym.symbol.st_value % BUNDLE_SIZE, 0);
        }
    }

    #[test]
    fn wx_image_parses_with_a_wx_load_segment() {
        let adv = wx_segment();
        loads_cleanly(&adv.image);
        let elf = ElfFile::parse(&adv.image).expect("parses");
        assert_eq!(elf.wx_segments().count(), 1);
    }
}
