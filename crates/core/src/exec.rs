//! In-enclave execution of provisioned client code.
//!
//! After EnGarde's inspection "the enclave can be accessed and executed
//! as on traditional SGX platforms" (paper §3). This module closes that
//! loop: an interpreter over the decoder's [`InsnKind`] that executes
//! the mapped client code against the simulated machine's enclave
//! memory. It exists to *prove the product is real*:
//!
//! - the loader/relocation output actually runs (calls resolve, the
//!   relocated entry is executable),
//! - the W^X permissions the host installed are enforced at runtime
//!   (writes to code pages fault, execution from data pages faults),
//! - the stack-protector instrumentation the policies verified actually
//!   catches stack smashes: a corrupted canary diverts control to
//!   `__stack_chk_fail`.
//!
//! The interpreter covers exactly the instruction repertoire the
//! workload generator emits; anything else faults with a precise
//! address, which is the honest behaviour for a simulator.

use crate::error::EngardeError;
use engarde_sgx::epc::PAGE_SIZE;
use engarde_sgx::machine::{EnclaveId, SgxMachine};
use engarde_x86::decode::decode_one;
use engarde_x86::encode::CANARY_FS_OFFSET;
use engarde_x86::insn::{AluOp, Cc, InsnKind, MemOperand, Width};
use engarde_x86::reg::Reg;
use std::collections::HashMap;

/// Base of the simulated stack (grows down).
pub const STACK_TOP: u64 = 0x7000_0000;
/// Stack size in bytes.
pub const STACK_BYTES: usize = 512 * 1024;
/// Sentinel return address: `ret`ing here ends execution.
const EXIT_SENTINEL: u64 = 0xE417_0000_0000;

/// Why execution stopped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExitReason {
    /// The entry function returned normally.
    Returned,
    /// Control reached `__stack_chk_fail` — a stack smash was caught by
    /// the instrumentation the policy demanded.
    CanaryFailure {
        /// Address of the call site that detected the smash.
        from: u64,
    },
    /// The instruction budget ran out (the program may simply be long).
    BudgetExhausted,
    /// A machine-level fault.
    Fault {
        /// Instruction address at fault time.
        at: u64,
        /// Human-readable description.
        what: String,
    },
}

/// The result of an execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExecOutcome {
    /// Why execution stopped.
    pub exit: ExitReason,
    /// Instructions executed.
    pub instructions: u64,
    /// Deepest call-stack depth observed.
    pub max_call_depth: usize,
}

/// Execution parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Instruction budget.
    pub max_instructions: u64,
    /// The canary value at `%fs:0x28`.
    pub canary: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_instructions: 2_000_000,
            canary: 0x5AFE_C0DE_5AFE_C0DE,
        }
    }
}

/// CPU state of the interpreted thread.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// The sixteen general-purpose registers, indexed by encoding.
    pub regs: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Operands of the last `cmp` (lhs, rhs, width) for `jcc`.
    last_cmp: Option<(u64, u64, Width)>,
}

impl Cpu {
    fn get(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    fn set(&mut self, r: Reg, v: u64) {
        self.regs[r as usize] = v;
    }

    fn set_w(&mut self, r: Reg, v: u64, w: Width) {
        // 32-bit writes zero-extend; 8/16-bit writes merge (x86
        // semantics).
        let old = self.regs[r as usize];
        self.regs[r as usize] = match w {
            Width::W64 => v,
            Width::W32 => v & 0xffff_ffff,
            Width::W16 => (old & !0xffff) | (v & 0xffff),
            Width::W8 => (old & !0xff) | (v & 0xff),
        };
    }
}

/// The interpreter.
pub struct Executor<'m> {
    machine: &'m mut SgxMachine,
    enclave: EnclaveId,
    stack: Vec<u8>,
    page_cache: HashMap<u64, Vec<u8>>,
    stack_chk_fail: Option<u64>,
    code_page_trace: Vec<u64>,
    secret_ranges: Vec<(u64, u64)>,
    secret_read_trace: Vec<u64>,
}

impl<'m> std::fmt::Debug for Executor<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Executor(enclave={})", self.enclave)
    }
}

impl<'m> Executor<'m> {
    /// Creates an executor for client code mapped into `enclave`.
    /// `stack_chk_fail` is the mapped address of `__stack_chk_fail`
    /// (execution entering it reports [`ExitReason::CanaryFailure`]).
    pub fn new(
        machine: &'m mut SgxMachine,
        enclave: EnclaveId,
        stack_chk_fail: Option<u64>,
    ) -> Self {
        Executor {
            machine,
            enclave,
            stack: vec![0u8; STACK_BYTES],
            page_cache: HashMap::new(),
            stack_chk_fail,
            code_page_trace: Vec::new(),
            secret_ranges: Vec::new(),
            secret_read_trace: Vec::new(),
        }
    }

    /// Registers `[start, end)` ranges whose runtime reads should be
    /// recorded in [`secret_read_trace`](Self::secret_read_trace) —
    /// the dynamic counterpart of the static taint pass's source list,
    /// used by tests to confirm a flagged binary really touches the
    /// secret it is accused of leaking.
    pub fn watch_secret_ranges(&mut self, ranges: &[crate::analysis::SecretRange]) {
        self.secret_ranges
            .extend(ranges.iter().map(|r| (r.start, r.end)));
    }

    /// Addresses of runtime reads that overlapped a watched secret
    /// range, in order (consecutive duplicates collapsed, mirroring
    /// [`code_page_trace`](Self::code_page_trace)).
    pub fn secret_read_trace(&self) -> &[u64] {
        &self.secret_read_trace
    }

    /// The sequence of distinct code pages control flow entered, in
    /// order — exactly what a malicious OS observes through page-fault
    /// manipulation (the controlled-channel attack of Xu et al., which
    /// the paper explicitly does **not** defend against: "Intel SGX does
    /// not protect applications against side-channel attacks and
    /// EnGarde also does not attempt to eliminate this attack vector",
    /// §6). Exposed so tests can demonstrate the leak.
    pub fn code_page_trace(&self) -> &[u64] {
        &self.code_page_trace
    }

    fn stack_range(&self) -> (u64, u64) {
        (STACK_TOP - STACK_BYTES as u64, STACK_TOP)
    }

    fn read_mem(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, String> {
        if self
            .secret_ranges
            .iter()
            .any(|&(s, e)| addr < e && addr + len as u64 > s)
            && self.secret_read_trace.last() != Some(&addr)
        {
            self.secret_read_trace.push(addr);
        }
        let (lo, hi) = self.stack_range();
        if addr >= lo && addr + len as u64 <= hi {
            let off = (addr - lo) as usize;
            return Ok(self.stack[off..off + len].to_vec());
        }
        // Enclave memory, through a local decrypted-page cache (the
        // interpreted thread runs inside the enclave).
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = a & !(PAGE_SIZE as u64 - 1);
            if !self.page_cache.contains_key(&page) {
                let data = self
                    .machine
                    .enclave_read(self.enclave, page, PAGE_SIZE)
                    .map_err(|e| format!("read fault at {a:#x}: {e}"))?;
                self.page_cache.insert(page, data);
            }
            let cached = &self.page_cache[&page];
            let off = (a - page) as usize;
            let take = remaining.min(PAGE_SIZE - off);
            out.extend_from_slice(&cached[off..off + take]);
            a += take as u64;
            remaining -= take;
        }
        Ok(out)
    }

    fn write_mem(&mut self, addr: u64, data: &[u8]) -> Result<(), String> {
        let (lo, hi) = self.stack_range();
        if addr >= lo && addr + data.len() as u64 <= hi {
            let off = (addr - lo) as usize;
            self.stack[off..off + data.len()].copy_from_slice(data);
            return Ok(());
        }
        // Enclave memory: the machine enforces EPCM write permissions,
        // so W^X violations surface here as faults.
        self.machine
            .enclave_write(self.enclave, addr, data)
            .map_err(|e| format!("write fault at {addr:#x}: {e}"))?;
        // Keep the cache coherent.
        let mut a = addr;
        let mut off = 0usize;
        while off < data.len() {
            let page = a & !(PAGE_SIZE as u64 - 1);
            if let Some(cached) = self.page_cache.get_mut(&page) {
                let po = (a - page) as usize;
                let take = (data.len() - off).min(PAGE_SIZE - po);
                cached[po..po + take].copy_from_slice(&data[off..off + take]);
                a += take as u64;
                off += take;
            } else {
                let take = (data.len() - off).min(PAGE_SIZE - (a - page) as usize);
                a += take as u64;
                off += take;
            }
        }
        Ok(())
    }

    fn read_u64(&mut self, addr: u64) -> Result<u64, String> {
        let b = self.read_mem(addr, 8)?;
        let b: [u8; 8] = b
            .try_into()
            .map_err(|_| format!("short read at {addr:#x}: expected 8 bytes"))?;
        Ok(u64::from_le_bytes(b))
    }

    fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), String> {
        self.write_mem(addr, &v.to_le_bytes())
    }

    fn effective_addr(cpu: &Cpu, mem: &MemOperand) -> Result<u64, String> {
        if mem.rip_relative {
            return Err("unexpected RIP-relative data access".into());
        }
        if let Some(seg) = mem.segment {
            return Err(format!("unmodelled {seg:?} segment override"));
        }
        let mut addr = mem.disp as i64 as u64;
        if let Some(b) = mem.base {
            addr = addr.wrapping_add(cpu.get(b));
        }
        if let Some(i) = mem.index {
            addr = addr.wrapping_add(cpu.get(i).wrapping_mul(mem.scale as u64));
        }
        Ok(addr)
    }

    fn width_bytes(w: Width) -> usize {
        match w {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    fn read_w(&mut self, addr: u64, w: Width) -> Result<u64, String> {
        let b = self.read_mem(addr, Self::width_bytes(w))?;
        let mut buf = [0u8; 8];
        buf[..b.len()].copy_from_slice(&b);
        Ok(u64::from_le_bytes(buf))
    }

    fn write_w(&mut self, addr: u64, v: u64, w: Width) -> Result<(), String> {
        self.write_mem(addr, &v.to_le_bytes()[..Self::width_bytes(w)])
    }

    fn alu(op: AluOp, a: u64, b: u64, w: Width) -> Result<u64, String> {
        let r = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub | AluOp::Cmp => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            // The carry flag is not modelled, so what reads it faults.
            AluOp::Adc | AluOp::Sbb => return Err(format!("unmodelled carry-flag op {op:?}")),
        };
        Ok(match w {
            Width::W64 => r,
            Width::W32 => r & 0xffff_ffff,
            Width::W16 => r & 0xffff,
            Width::W8 => r & 0xff,
        })
    }

    fn cond(cpu: &Cpu, cc: Cc) -> Result<bool, String> {
        let Some((l, r, w)) = cpu.last_cmp else {
            return Err("conditional jump without a preceding cmp".into());
        };
        let (sl, sr) = match w {
            Width::W64 => (l as i64, r as i64),
            Width::W32 => (l as u32 as i32 as i64, r as u32 as i32 as i64),
            Width::W16 => (l as u16 as i16 as i64, r as u16 as i16 as i64),
            Width::W8 => (l as u8 as i8 as i64, r as u8 as i8 as i64),
        };
        Ok(match cc {
            Cc::E => l == r,
            Cc::Ne => l != r,
            Cc::B => l < r,
            Cc::Ae => l >= r,
            Cc::Be => l <= r,
            Cc::A => l > r,
            Cc::L => sl < sr,
            Cc::Ge => sl >= sr,
            Cc::Le => sl <= sr,
            Cc::G => sl > sr,
            Cc::S => sl.wrapping_sub(sr) < 0,
            Cc::Ns => sl.wrapping_sub(sr) >= 0,
            Cc::O | Cc::No | Cc::P | Cc::Np => {
                return Err(format!("unsupported condition {cc:?}"));
            }
        })
    }

    /// Checks that the page backing `addr` is executable.
    fn check_exec(&self, addr: u64) -> Result<(), String> {
        let page = addr & !(PAGE_SIZE as u64 - 1);
        match self.machine.epcm_perms(self.enclave, page) {
            Some(p) if p.x => Ok(()),
            Some(p) => Err(format!(
                "executing {addr:#x} on a {p} page (W^X enforced at runtime)"
            )),
            None => Err(format!("executing unmapped address {addr:#x}")),
        }
    }

    /// Runs from `entry` until return, fault, canary failure, or budget
    /// exhaustion.
    ///
    /// # Errors
    ///
    /// Only machine-level protocol errors (bad enclave id) surface as
    /// `Err`; program-level failures are reported in the outcome.
    pub fn run(&mut self, entry: u64, config: &ExecConfig) -> Result<ExecOutcome, EngardeError> {
        let mut cpu = Cpu {
            regs: [0u64; 16],
            rip: entry,
            last_cmp: None,
        };
        cpu.set(Reg::Rsp, STACK_TOP - 4096);
        // Push the exit sentinel as the return address.
        let rsp = cpu.get(Reg::Rsp) - 8;
        cpu.set(Reg::Rsp, rsp);
        self.write_u64(rsp, EXIT_SENTINEL)
            .map_err(|what| EngardeError::Protocol { what })?;

        let mut executed = 0u64;
        let mut depth = 1usize;
        let mut max_depth = 1usize;
        let fault = |at: u64, what: String, executed: u64, max_depth: usize| ExecOutcome {
            exit: ExitReason::Fault { at, what },
            instructions: executed,
            max_call_depth: max_depth,
        };

        loop {
            if executed >= config.max_instructions {
                return Ok(ExecOutcome {
                    exit: ExitReason::BudgetExhausted,
                    instructions: executed,
                    max_call_depth: max_depth,
                });
            }
            if let Some(chk) = self.stack_chk_fail {
                if cpu.rip == chk {
                    return Ok(ExecOutcome {
                        exit: ExitReason::CanaryFailure { from: cpu.rip },
                        instructions: executed,
                        max_call_depth: max_depth,
                    });
                }
            }
            if let Err(what) = self.check_exec(cpu.rip) {
                return Ok(fault(cpu.rip, what, executed, max_depth));
            }
            // Page-granular control-flow trace (the host's side channel).
            let rip_page = cpu.rip & !(PAGE_SIZE as u64 - 1);
            if self.code_page_trace.last() != Some(&rip_page) {
                self.code_page_trace.push(rip_page);
            }
            let bytes = match self.read_mem(cpu.rip, 15) {
                Ok(b) => b,
                Err(what) => return Ok(fault(cpu.rip, what, executed, max_depth)),
            };
            let insn = match decode_one(&bytes, cpu.rip) {
                Ok(i) => i,
                Err(e) => {
                    return Ok(fault(
                        cpu.rip,
                        format!("decode fault: {e}"),
                        executed,
                        max_depth,
                    ))
                }
            };
            executed += 1;
            let next = cpu.rip + insn.len as u64;
            cpu.rip = next;

            let step: Result<(), String> = (|| {
                match insn.kind {
                    InsnKind::Nop => {}
                    InsnKind::MovRegToReg { dest, src, width } => {
                        let v = cpu.get(src);
                        cpu.set_w(dest, v, width);
                    }
                    InsnKind::MovImmToReg { dest, imm, width } => {
                        cpu.set_w(dest, imm as u64, width);
                    }
                    InsnKind::MovFsToReg { dest, fs_offset } => {
                        if fs_offset != CANARY_FS_OFFSET {
                            return Err(format!("unmodelled %fs offset {fs_offset:#x}"));
                        }
                        cpu.set(dest, config.canary);
                    }
                    InsnKind::MovRegToMem { src, mem, width } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        self.write_w(addr, cpu.get(src), width)?;
                    }
                    InsnKind::MovMemToReg { dest, mem, width } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        let v = self.read_w(addr, width)?;
                        cpu.set_w(dest, v, width);
                    }
                    InsnKind::MovImmToMem { mem, imm, width } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        self.write_w(addr, imm as u64, width)?;
                    }
                    InsnKind::Lea { dest, mem, width } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        cpu.set_w(dest, addr, width);
                    }
                    InsnKind::LeaRipRel {
                        dest,
                        target,
                        width,
                    } => {
                        cpu.set_w(dest, target, width);
                    }
                    InsnKind::AluRegReg {
                        op,
                        dest,
                        src,
                        width,
                    } => {
                        let (a, b) = (cpu.get(dest), cpu.get(src));
                        if op == AluOp::Cmp {
                            cpu.last_cmp = Some((a, b, width));
                        } else {
                            cpu.set_w(dest, Self::alu(op, a, b, width)?, width);
                        }
                    }
                    InsnKind::AluImmReg {
                        op,
                        dest,
                        imm,
                        width,
                    } => {
                        let a = cpu.get(dest);
                        if op == AluOp::Cmp {
                            cpu.last_cmp = Some((a, imm as u64, width));
                        } else {
                            cpu.set_w(dest, Self::alu(op, a, imm as u64, width)?, width);
                        }
                    }
                    InsnKind::AluMemReg {
                        op,
                        dest,
                        mem,
                        width,
                    } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        let m = self.read_w(addr, width)?;
                        let a = cpu.get(dest);
                        if op == AluOp::Cmp {
                            cpu.last_cmp = Some((a, m, width));
                        } else {
                            cpu.set_w(dest, Self::alu(op, a, m, width)?, width);
                        }
                    }
                    InsnKind::AluRegMem {
                        op,
                        mem,
                        src,
                        width,
                    } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        let m = self.read_w(addr, width)?;
                        let b = cpu.get(src);
                        if op == AluOp::Cmp {
                            cpu.last_cmp = Some((m, b, width));
                        } else {
                            self.write_w(addr, Self::alu(op, m, b, width)?, width)?;
                        }
                    }
                    InsnKind::AluImmMem {
                        op,
                        mem,
                        imm,
                        width,
                    } => {
                        let addr = Self::effective_addr(&cpu, &mem)?;
                        let m = self.read_w(addr, width)?;
                        if op == AluOp::Cmp {
                            cpu.last_cmp = Some((m, imm as u64, width));
                        } else {
                            self.write_w(addr, Self::alu(op, m, imm as u64, width)?, width)?;
                        }
                    }
                    InsnKind::PushReg { reg } => {
                        let v = cpu.get(reg);
                        let rsp = cpu.get(Reg::Rsp) - 8;
                        cpu.set(Reg::Rsp, rsp);
                        self.write_u64(rsp, v)?;
                    }
                    InsnKind::PopReg { reg } => {
                        let rsp = cpu.get(Reg::Rsp);
                        let v = self.read_u64(rsp)?;
                        cpu.set(Reg::Rsp, rsp + 8);
                        cpu.set(reg, v);
                    }
                    InsnKind::DirectCall { target } => {
                        let rsp = cpu.get(Reg::Rsp) - 8;
                        cpu.set(Reg::Rsp, rsp);
                        self.write_u64(rsp, next)?;
                        cpu.rip = target;
                        depth += 1;
                        max_depth = max_depth.max(depth);
                    }
                    InsnKind::IndirectCallReg { reg } => {
                        let target = cpu.get(reg);
                        let rsp = cpu.get(Reg::Rsp) - 8;
                        cpu.set(Reg::Rsp, rsp);
                        self.write_u64(rsp, next)?;
                        cpu.rip = target;
                        depth += 1;
                        max_depth = max_depth.max(depth);
                    }
                    InsnKind::Ret => {
                        if insn.imm_len != 0 {
                            return Err("ret imm16 is not modelled".into());
                        }
                        let rsp = cpu.get(Reg::Rsp);
                        let ra = self.read_u64(rsp)?;
                        cpu.set(Reg::Rsp, rsp + 8);
                        cpu.rip = ra;
                        depth = depth.saturating_sub(1);
                    }
                    InsnKind::DirectJmp { target } => {
                        cpu.rip = target;
                    }
                    InsnKind::CondJmp { cc, target } => {
                        if Self::cond(&cpu, cc)? {
                            cpu.rip = target;
                        }
                    }
                    InsnKind::IndirectJmpReg { reg } => {
                        cpu.rip = cpu.get(reg);
                    }
                    k => return Err(format!("unmodelled instruction {k:?}")),
                }
                Ok(())
            })();
            if let Err(what) = step {
                return Ok(fault(insn.addr, what, executed, max_depth));
            }
            if cpu.rip == EXIT_SENTINEL {
                return Ok(ExecOutcome {
                    exit: ExitReason::Returned,
                    instructions: executed,
                    max_call_depth: max_depth,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load, LoaderConfig};
    use crate::relocate::map_and_relocate;
    use engarde_elf::build::ElfBuilder;
    use engarde_sgx::epc::PagePerms;
    use engarde_sgx::instr::SgxVersion;
    use engarde_sgx::machine::MachineConfig;
    use engarde_x86::encode::Assembler;

    const ENCLAVE_BASE: u64 = 0x100000;
    const REGION_PAGES: usize = 96;

    /// Provisions `image` into a fresh enclave (load → map → finalize
    /// perms) and returns what execution needs.
    fn provision(image: &[u8]) -> (SgxMachine, EnclaveId, u64, Option<u64>) {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 512,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 0xE4EC,
        });
        let region_base = ENCLAVE_BASE + PAGE_SIZE as u64;
        let size = ((1 + REGION_PAGES) * PAGE_SIZE) as u64;
        let id = m.ecreate(ENCLAVE_BASE, size).expect("ecreate");
        m.eadd(id, ENCLAVE_BASE, b"engarde", PagePerms::RWX)
            .expect("eadd");
        m.eextend(id, ENCLAVE_BASE).expect("eextend");
        for p in 0..REGION_PAGES {
            let va = region_base + (p * PAGE_SIZE) as u64;
            m.eadd(id, va, &[], PagePerms::RWX).expect("region");
            m.eextend(id, va).expect("eextend");
        }
        m.einit(id).expect("einit");
        m.eenter(id).expect("enter");
        let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("loads");
        let mapping = map_and_relocate(
            &mut m,
            id,
            &loaded.elf,
            &loaded.raw_image,
            region_base,
            REGION_PAGES,
        )
        .expect("maps");
        // Lock permissions the way the host does after a verdict.
        for &page in &mapping.exec_pages {
            m.emodpr(id, page, PagePerms::RX).expect("emodpr");
            m.eaccept(id, page).expect("eaccept");
        }
        for &page in &mapping.rw_pages {
            m.emodpr(id, page, PagePerms::RW).expect("emodpr");
            m.eaccept(id, page).expect("eaccept");
        }
        let chk = loaded
            .symbols
            .addr_of("__stack_chk_fail")
            .map(|a| region_base + a);
        (m, id, mapping.entry, chk)
    }

    #[test]
    fn hand_written_function_computes_and_returns() {
        // f: rax = 2 + 3; uses a stack slot; returns.
        let mut asm = Assembler::new();
        asm.push_reg(Reg::Rbp);
        asm.mov_rr64(Reg::Rbp, Reg::Rsp);
        asm.mov_ri32(Reg::Rax, 2);
        asm.mov_ri32(Reg::Rcx, 3);
        asm.add_rr64(Reg::Rax, Reg::Rcx);
        asm.mov_reg_to_rbp_disp8(Reg::Rax, -8);
        asm.mov_rbp_disp8_to_reg(Reg::Rdx, -8);
        asm.pop_reg(Reg::Rbp);
        asm.ret();
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        assert_eq!(out.exit, ExitReason::Returned, "{out:?}");
        assert!(out.instructions >= 9);
    }

    #[test]
    fn secret_reads_are_traced() {
        use crate::analysis::{SecretClass, SecretRange};
        // f: reads one qword from a fixed in-region address, twice (the
        // consecutive duplicate collapses), then an unwatched one.
        let watched = ENCLAVE_BASE + PAGE_SIZE as u64 + 0x40000;
        let mut asm = Assembler::new();
        asm.movabs(Reg::Rbx, watched);
        asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
        asm.mov_mem_to_reg64(Reg::Rcx, Reg::Rbx);
        asm.movabs(Reg::Rbx, watched + 0x100);
        asm.mov_mem_to_reg64(Reg::Rdx, Reg::Rbx);
        asm.ret();
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        exec.watch_secret_ranges(&[SecretRange {
            start: watched,
            end: watched + 8,
            class: SecretClass::ChannelKey,
        }]);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        assert_eq!(out.exit, ExitReason::Returned, "{out:?}");
        assert_eq!(exec.secret_read_trace(), &[watched]);
    }

    #[test]
    fn protected_function_passes_canary_check_at_runtime() {
        use engarde_workloads::generator::{generate, WorkloadSpec};
        use engarde_workloads::libc::Instrumentation;
        let w = generate(&WorkloadSpec {
            target_instructions: 4_000,
            instrumentation: Instrumentation::StackProtector,
            libc_functions_used: 10,
            avg_app_fn_insns: 30,
            calls_per_app_fn: 1,
            ..WorkloadSpec::default()
        });
        let (mut m, id, entry, chk) = provision(&w.image);
        assert!(chk.is_some(), "protected build links __stack_chk_fail");
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        assert_eq!(
            out.exit,
            ExitReason::Returned,
            "clean run must not trip the canary: {out:?}"
        );
        assert!(out.instructions > 100);
        assert!(out.max_call_depth >= 2);
    }

    #[test]
    fn smashed_canary_is_caught_at_runtime() {
        // A function that clobbers its own canary slot before the check —
        // a stack smash in miniature.
        let mut asm = Assembler::new();
        let fail = asm.label();
        let chk_fn = asm.label();
        asm.push_reg(Reg::Rbp);
        asm.mov_rr64(Reg::Rbp, Reg::Rsp);
        asm.sub_ri8(Reg::Rsp, 120);
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.mov_reg_to_rsp(Reg::Rax); // canary store
        asm.mov_ri32(Reg::Rax, 0x41414141); // "AAAA..." overflow
        asm.mov_reg_to_rsp(Reg::Rax); // smashes the slot
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.cmp_rsp_reg(Reg::Rax);
        asm.jne_label(fail);
        asm.add_ri8(Reg::Rsp, 120);
        asm.pop_reg(Reg::Rbp);
        asm.ret();
        asm.bind(fail);
        asm.call_label(chk_fn);
        asm.ret();
        asm.align_to(32);
        asm.bind(chk_fn);
        let chk_off = asm.label_offset(chk_fn).expect("bound");
        asm.ret();
        let text = asm.finish();
        let text_len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("main", 0, chk_off)
            .function("__stack_chk_fail", chk_off, text_len - chk_off)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        assert!(
            matches!(out.exit, ExitReason::CanaryFailure { .. }),
            "smash must be caught: {out:?}"
        );
    }

    #[test]
    fn wx_violation_faults_at_runtime() {
        // Code that tries to write to its own (sealed RX) code page.
        let mut asm = Assembler::new();
        asm.movabs(Reg::Rcx, 0); // patched below to the code address
        asm.mov_ri32(Reg::Rax, 0x90909090);
        // mov %rax, (%rcx): 48 89 01
        asm.emit_raw_insn(&[0x48, 0x89, 0x01]);
        asm.ret();
        let mut text = asm.finish();
        // Patch the movabs immediate with the mapped code address.
        let code_va = ENCLAVE_BASE + PAGE_SIZE as u64 + engarde_elf::build::TEXT_VADDR;
        text[2..10].copy_from_slice(&code_va.to_le_bytes());
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("selfpatch", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        match out.exit {
            ExitReason::Fault { what, .. } => {
                assert!(what.contains("write fault"), "{what}");
            }
            other => panic!("self-patching must fault, got {other:?}"),
        }
    }

    #[test]
    fn carry_dependent_alu_faults() {
        // `adc` reads the carry flag, which the interpreter does not
        // model: it faults at its own address instead of running as a
        // plain `add`.
        let mut asm = Assembler::new();
        asm.mov_ri32(Reg::Rax, 1);
        asm.mov_ri32(Reg::Rcx, 2);
        let adc_offset = asm.offset();
        asm.emit_raw_insn(&[0x48, 0x11, 0xc8]); // adc %rcx, %rax
        asm.ret();
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        match out.exit {
            ExitReason::Fault { at, what } => {
                assert_eq!(at, entry + adc_offset);
                assert!(what.contains("Adc"), "{what}");
            }
            other => panic!("adc must fault, got {other:?}"),
        }
    }

    #[test]
    fn executing_data_pages_faults() {
        let mut asm = Assembler::new();
        // Jump into the data segment (no trailing code: the indirect
        // jmp ends the flow).
        asm.movabs(Reg::Rcx, 0); // patched below
        asm.emit_raw_insn(&[0xff, 0xe1]); // jmp *%rcx
        let mut text = asm.finish();
        let elf_probe = ElfBuilder::new()
            .text(text.clone())
            .data(vec![0x90; 64])
            .function("f", 0, text.len() as u64)
            .entry(0)
            .build();
        let parsed = engarde_elf::parse::ElfFile::parse(&elf_probe).expect("parses");
        let data_va = parsed.section(".data").expect(".data").header.sh_addr;
        let mapped_data = ENCLAVE_BASE + PAGE_SIZE as u64 + data_va;
        text[2..10].copy_from_slice(&mapped_data.to_le_bytes());
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .data(vec![0x90; 64])
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec.run(entry, &ExecConfig::default()).expect("runs");
        match out.exit {
            ExitReason::Fault { what, .. } => {
                assert!(what.contains("W^X") || what.contains("rw-"), "{what}");
            }
            other => panic!("executing data must fault, got {other:?}"),
        }
    }

    #[test]
    fn page_trace_leaks_control_flow_to_the_host() {
        // The controlled-channel non-goal, demonstrated: two entry
        // points exercising different functions produce distinguishable
        // page-access traces, so a malicious OS learns which code ran
        // even though it cannot read any of it.
        let mut asm = Assembler::new();
        let far_fn = asm.label();
        // entry_a (offset 0): returns immediately.
        asm.ret();
        // entry_b: calls a function on a distant page.
        asm.align_to(32);
        let entry_b = asm.offset();
        asm.call_label(far_fn);
        asm.ret();
        // Pad far away so the callee lives on another page.
        while asm.offset() < 3 * PAGE_SIZE as u64 {
            asm.nop();
        }
        asm.bind(far_fn);
        asm.ret();
        let text = asm.finish();
        let text_len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("entry_a", 0, entry_b)
            .function("entry_b", entry_b, 3 * PAGE_SIZE as u64 - entry_b)
            .function(
                "far_fn",
                3 * PAGE_SIZE as u64,
                text_len - 3 * PAGE_SIZE as u64,
            )
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);

        let mut exec_a = Executor::new(&mut m, id, chk);
        exec_a.run(entry, &ExecConfig::default()).expect("runs");
        let trace_a = exec_a.code_page_trace().to_vec();

        let region_entry_b = entry + entry_b;
        let mut exec_b = Executor::new(&mut m, id, chk);
        exec_b
            .run(region_entry_b, &ExecConfig::default())
            .expect("runs");
        let trace_b = exec_b.code_page_trace().to_vec();

        assert_ne!(
            trace_a, trace_b,
            "page traces distinguish the two executions — the side              channel the paper leaves open"
        );
        assert_eq!(trace_a.len(), 1, "entry_a touches one code page");
        assert!(trace_b.len() >= 2, "entry_b's call crosses pages");
    }

    #[test]
    fn budget_exhaustion_reported() {
        // An infinite loop: jmp to self.
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.nop();
        asm.jmp_label(top);
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("spin", 0, len)
            .entry(0)
            .build();
        let (mut m, id, entry, chk) = provision(&image);
        let mut exec = Executor::new(&mut m, id, chk);
        let out = exec
            .run(
                entry,
                &ExecConfig {
                    max_instructions: 10_000,
                    ..ExecConfig::default()
                },
            )
            .expect("runs");
        assert_eq!(out.exit, ExitReason::BudgetExhausted);
        assert_eq!(out.instructions, 10_000);
    }
}
