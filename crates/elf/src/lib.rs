//! # engarde-elf
//!
//! ELF64 reader and writer substrate for the EnGarde stack.
//!
//! EnGarde's prototype (paper §4) "supports x86-64 executables that use
//! ELF format, are compiled as position independent executables and are
//! statically linked". This crate provides:
//!
//! - [`types`] — the on-disk ELF64 structures and constants,
//! - [`parse`] — a validating reader ([`parse::ElfFile`]) implementing the
//!   loader's header checks, the one validated segment view (every
//!   `PT_LOAD` checked, exactly one executable), symbol tables and
//!   `.dynamic`-driven relocation discovery; it copies no contents, and
//!   sections, like segments, are checked ranges into the image,
//! - [`build`] — a writer ([`build::ElfBuilder`]) used by
//!   `engarde-workloads` to generate compiler-equivalent benchmark
//!   binaries.
//!
//! # Examples
//!
//! ```
//! use engarde_elf::build::ElfBuilder;
//! use engarde_elf::parse::ElfFile;
//!
//! # fn main() -> Result<(), engarde_elf::ElfError> {
//! let image = ElfBuilder::new().text(vec![0xc3]).build();
//! let elf = ElfFile::parse(&image)?;
//! elf.require_pie()?;
//! elf.require_static()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod parse;
pub mod types;

use std::error::Error;
use std::fmt;

/// Errors produced while parsing or validating an ELF image.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ElfError {
    /// The file is shorter than a required structure.
    Truncated {
        /// Which structure was truncated.
        what: &'static str,
    },
    /// The file does not begin with `\x7fELF`.
    BadMagic,
    /// Not a 64-bit ELF file.
    BadClass {
        /// The `EI_CLASS` byte found.
        class: u8,
    },
    /// Not little-endian.
    BadEncoding {
        /// The `EI_DATA` byte found.
        encoding: u8,
    },
    /// Unsupported ELF version.
    BadVersion {
        /// The `EI_VERSION` byte found.
        version: u8,
    },
    /// Not an x86-64 binary.
    BadMachine {
        /// The `e_machine` value found.
        machine: u16,
    },
    /// A table entry size does not match the ELF64 ABI.
    BadTableEntry {
        /// Which table.
        what: &'static str,
        /// The offending size.
        size: usize,
    },
    /// A string table reference is out of range or not NUL-terminated.
    BadStringTable,
    /// The `.dynamic` relocation description is inconsistent.
    BadRelocationTable,
    /// A `PT_LOAD` segment is malformed: its file range leaves the image,
    /// its virtual range overflows or shares a page with another
    /// segment, or it claims more file bytes than memory.
    BadSegment {
        /// Index of the segment in the program header table.
        index: usize,
        /// Which rule it breaks.
        reason: &'static str,
    },
    /// The image does not have exactly one executable `PT_LOAD`.
    ExecSegmentCount {
        /// How many executable `PT_LOAD`s it has.
        count: usize,
    },
    /// A relocation entry is unsupported or patches bytes outside every
    /// writable, non-executable `PT_LOAD`.
    BadRelocation {
        /// The entry's `r_offset`.
        r_offset: u64,
        /// Which rule it breaks.
        reason: &'static str,
    },
    /// The binary is not a position-independent executable.
    NotPie {
        /// The `e_type` value found.
        e_type: u16,
    },
    /// The binary is dynamically linked.
    NotStatic,
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::Truncated { what } => write!(f, "truncated ELF image ({what})"),
            ElfError::BadMagic => write!(f, "missing ELF magic"),
            ElfError::BadClass { class } => {
                write!(f, "unsupported ELF class {class} (need ELFCLASS64)")
            }
            ElfError::BadEncoding { encoding } => {
                write!(
                    f,
                    "unsupported data encoding {encoding} (need little-endian)"
                )
            }
            ElfError::BadVersion { version } => write!(f, "unsupported ELF version {version}"),
            ElfError::BadMachine { machine } => {
                write!(f, "unsupported machine {machine} (need x86-64)")
            }
            ElfError::BadTableEntry { what, size } => {
                write!(f, "malformed {what} table entry of size {size}")
            }
            ElfError::BadStringTable => write!(f, "malformed string table reference"),
            ElfError::BadRelocationTable => write!(f, "inconsistent relocation table description"),
            ElfError::BadSegment { index, reason } => {
                write!(f, "malformed loadable segment {index}: {reason}")
            }
            ElfError::ExecSegmentCount { count } => {
                write!(f, "{count} executable loadable segments (need exactly one)")
            }
            ElfError::BadRelocation { r_offset, reason } => {
                write!(f, "relocation at {r_offset:#x} rejected: {reason}")
            }
            ElfError::NotPie { e_type } => {
                write!(
                    f,
                    "not a position-independent executable (e_type = {e_type})"
                )
            }
            ElfError::NotStatic => write!(f, "binary is dynamically linked"),
        }
    }
}

impl Error for ElfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_displayable_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ElfError>();
        assert!(!ElfError::BadMagic.to_string().is_empty());
        assert!(ElfError::NotPie { e_type: 2 }.to_string().contains('2'));
    }
}
