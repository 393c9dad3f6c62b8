//! # engarde-x86
//!
//! x86-64 decoder, encoder, and NaCl-style validator — the disassembly
//! substrate of the EnGarde stack.
//!
//! The EnGarde paper builds its in-enclave disassembler on Google Native
//! Client's 64-bit disassembler: prefix and opcode tables parse the text
//! sections into instructions plus metadata (prefix/opcode/displacement
//! byte counts), and NaCl's structural constraints guarantee clean,
//! unambiguous disassembly. This crate reproduces that layer:
//!
//! - [`reg`] — the sixteen general-purpose registers,
//! - [`insn`] — decoded instructions and the policy-relevant
//!   classification ([`insn::InsnKind`]),
//! - [`decode`] — the linear-sweep decoder,
//! - [`index`] — the O(1) address → instruction index every later
//!   stage shares,
//! - [`validate`] — NaCl rules: 32-byte bundle straddling, branch-target
//!   validity, reachability, and SGX instruction legality,
//! - [`encode`] — an assembler used by the synthetic workload generator.
//!
//! # Examples
//!
//! ```
//! use engarde_x86::decode::decode_all;
//! use engarde_x86::index::InsnIndex;
//! use engarde_x86::validate::Validator;
//!
//! // push %rbp; mov %rsp,%rbp; pop %rbp; ret
//! let code = [0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3];
//! let insns = decode_all(&code, 0x1000).expect("well-formed code");
//! let index = InsnIndex::new(&insns);
//! let report = Validator::new()
//!     .validate(&insns, &index, 0x1000, &[])
//!     .expect("NaCl-clean");
//! assert_eq!(report.instructions, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod encode;
pub mod index;
pub mod insn;
pub mod reg;
pub mod validate;

use std::error::Error;
use std::fmt;

/// Errors produced by disassembly or NaCl-style validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DisasmError {
    /// The byte stream ended in the middle of an instruction.
    UnexpectedEof {
        /// Address of the truncated instruction.
        addr: u64,
    },
    /// An opcode outside the supported repertoire.
    UnknownOpcode {
        /// Address of the instruction.
        addr: u64,
        /// The opcode byte(s); two-byte opcodes are `0x0fxx`.
        opcode: u16,
    },
    /// The `0x67` address-size prefix is not supported.
    UnsupportedAddressSize {
        /// Address of the instruction.
        addr: u64,
    },
    /// The encoding exceeds the 15-byte architectural limit.
    TooLong {
        /// Address of the instruction.
        addr: u64,
    },
    /// An instruction overlaps a 32-byte bundle boundary (NaCl rule).
    BundleStraddle {
        /// Address of the straddling instruction.
        addr: u64,
    },
    /// A direct control transfer targets the middle of an instruction.
    BadBranchTarget {
        /// Address of the branch.
        addr: u64,
        /// The invalid target.
        target: u64,
    },
    /// A direct control transfer leaves the validated region.
    TargetOutOfRegion {
        /// Address of the branch.
        addr: u64,
        /// The out-of-region target.
        target: u64,
    },
    /// The entry point is not the start of a decoded instruction.
    BadEntry {
        /// The entry address.
        addr: u64,
    },
    /// An instruction is not reachable from the entry point or any root.
    Unreachable {
        /// Address of the unreachable instruction.
        addr: u64,
    },
    /// An instruction that cannot execute inside an SGX enclave.
    ForbiddenInstruction {
        /// Address of the instruction.
        addr: u64,
        /// Human-readable description.
        what: &'static str,
    },
}

impl DisasmError {
    /// The address the error refers to.
    pub fn addr(&self) -> u64 {
        match *self {
            DisasmError::UnexpectedEof { addr }
            | DisasmError::UnknownOpcode { addr, .. }
            | DisasmError::UnsupportedAddressSize { addr }
            | DisasmError::TooLong { addr }
            | DisasmError::BundleStraddle { addr }
            | DisasmError::BadBranchTarget { addr, .. }
            | DisasmError::TargetOutOfRegion { addr, .. }
            | DisasmError::BadEntry { addr }
            | DisasmError::Unreachable { addr }
            | DisasmError::ForbiddenInstruction { addr, .. } => addr,
        }
    }
}

impl fmt::Display for DisasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisasmError::UnexpectedEof { addr } => {
                write!(f, "unexpected end of code at {addr:#x}")
            }
            DisasmError::UnknownOpcode { addr, opcode } => {
                write!(f, "unknown opcode {opcode:#x} at {addr:#x}")
            }
            DisasmError::UnsupportedAddressSize { addr } => {
                write!(f, "unsupported address-size prefix at {addr:#x}")
            }
            DisasmError::TooLong { addr } => {
                write!(f, "instruction exceeds 15 bytes at {addr:#x}")
            }
            DisasmError::BundleStraddle { addr } => {
                write!(f, "instruction at {addr:#x} overlaps a 32-byte boundary")
            }
            DisasmError::BadBranchTarget { addr, target } => {
                write!(
                    f,
                    "branch at {addr:#x} targets {target:#x}, which is not an instruction start"
                )
            }
            DisasmError::TargetOutOfRegion { addr, target } => {
                write!(
                    f,
                    "branch at {addr:#x} targets {target:#x} outside the code region"
                )
            }
            DisasmError::BadEntry { addr } => {
                write!(f, "entry point {addr:#x} is not an instruction start")
            }
            DisasmError::Unreachable { addr } => {
                write!(
                    f,
                    "instruction at {addr:#x} is unreachable from the start address"
                )
            }
            DisasmError::ForbiddenInstruction { addr, what } => {
                write!(f, "{what} at {addr:#x} cannot execute inside an enclave")
            }
        }
    }
}

impl Error for DisasmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_addr_accessor_and_display() {
        let errors = [
            DisasmError::UnexpectedEof { addr: 1 },
            DisasmError::UnknownOpcode { addr: 2, opcode: 6 },
            DisasmError::UnsupportedAddressSize { addr: 3 },
            DisasmError::TooLong { addr: 4 },
            DisasmError::BundleStraddle { addr: 5 },
            DisasmError::BadBranchTarget { addr: 6, target: 0 },
            DisasmError::TargetOutOfRegion { addr: 7, target: 0 },
            DisasmError::Unreachable { addr: 8 },
            DisasmError::ForbiddenInstruction {
                addr: 9,
                what: "syscall",
            },
            DisasmError::BadEntry { addr: 10 },
        ];
        for (i, e) in errors.iter().enumerate() {
            assert_eq!(e.addr(), (i + 1) as u64);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DisasmError>();
    }
}
