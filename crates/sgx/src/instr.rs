//! The SGX enclave-management instruction surface.
//!
//! The paper (§2): "Although we have only introduced a handful of
//! instructions, the SGX supports a total of 24 new enclave management
//! instructions." This module names all 24 — the privileged `ENCLS`
//! leaves executed by the OS and the user-mode `ENCLU` leaves executed by
//! the process — and records which SGX version introduced each. The
//! simulated machine ([`crate::machine::SgxMachine`]) implements the
//! leaves EnGarde exercises and charges every one the 10K-cycle cost from
//! [`crate::perf`].

use std::fmt;

/// Which instruction set revision a leaf belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SgxVersion {
    /// SGX1 (Skylake): static enclaves, no EPC permission changes.
    V1,
    /// SGX2: dynamic memory management (EAUG/EMODPR/EMODPE/EACCEPT/…).
    V2,
}

/// One of the 24 SGX enclave-management instruction leaves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // Names are the Intel mnemonics; see `describe`.
pub enum SgxInstr {
    // ENCLS (privileged) leaves.
    Ecreate,
    Eadd,
    Eextend,
    Einit,
    Eremove,
    Edbgrd,
    Edbgwr,
    Eldb,
    Eldu,
    Eblock,
    Epa,
    Ewb,
    Etrack,
    Eaug,
    Emodpr,
    Emodt,
    // ENCLU (user) leaves.
    Eenter,
    Eexit,
    Eresume,
    Egetkey,
    Ereport,
    Eaccept,
    Emodpe,
    Eacceptcopy,
}

impl SgxInstr {
    /// All 24 leaves.
    pub const ALL: [SgxInstr; 24] = [
        SgxInstr::Ecreate,
        SgxInstr::Eadd,
        SgxInstr::Eextend,
        SgxInstr::Einit,
        SgxInstr::Eremove,
        SgxInstr::Edbgrd,
        SgxInstr::Edbgwr,
        SgxInstr::Eldb,
        SgxInstr::Eldu,
        SgxInstr::Eblock,
        SgxInstr::Epa,
        SgxInstr::Ewb,
        SgxInstr::Etrack,
        SgxInstr::Eaug,
        SgxInstr::Emodpr,
        SgxInstr::Emodt,
        SgxInstr::Eenter,
        SgxInstr::Eexit,
        SgxInstr::Eresume,
        SgxInstr::Egetkey,
        SgxInstr::Ereport,
        SgxInstr::Eaccept,
        SgxInstr::Emodpe,
        SgxInstr::Eacceptcopy,
    ];

    /// True for privileged (`ENCLS`) leaves executed by the OS/VMM.
    pub fn is_privileged(self) -> bool {
        matches!(
            self,
            SgxInstr::Ecreate
                | SgxInstr::Eadd
                | SgxInstr::Eextend
                | SgxInstr::Einit
                | SgxInstr::Eremove
                | SgxInstr::Edbgrd
                | SgxInstr::Edbgwr
                | SgxInstr::Eldb
                | SgxInstr::Eldu
                | SgxInstr::Eblock
                | SgxInstr::Epa
                | SgxInstr::Ewb
                | SgxInstr::Etrack
                | SgxInstr::Eaug
                | SgxInstr::Emodpr
                | SgxInstr::Emodt
        )
    }

    /// The instruction set revision that introduced this leaf.
    pub fn since(self) -> SgxVersion {
        match self {
            SgxInstr::Eaug
            | SgxInstr::Emodpr
            | SgxInstr::Emodt
            | SgxInstr::Eaccept
            | SgxInstr::Emodpe
            | SgxInstr::Eacceptcopy => SgxVersion::V2,
            _ => SgxVersion::V1,
        }
    }

    /// One-line description of the leaf.
    pub fn describe(self) -> &'static str {
        match self {
            SgxInstr::Ecreate => "create an enclave (SECS page)",
            SgxInstr::Eadd => "add a page to an uninitialized enclave",
            SgxInstr::Eextend => "extend the enclave measurement with 256 bytes",
            SgxInstr::Einit => "finalize enclave initialization and measurement",
            SgxInstr::Eremove => "remove a page from an enclave",
            SgxInstr::Edbgrd => "debug read from a debug enclave",
            SgxInstr::Edbgwr => "debug write to a debug enclave",
            SgxInstr::Eldb => "load an evicted page (blocked)",
            SgxInstr::Eldu => "load an evicted page (unblocked)",
            SgxInstr::Eblock => "mark a page as blocked for eviction",
            SgxInstr::Epa => "allocate a version-array page",
            SgxInstr::Ewb => "evict a page to regular memory",
            SgxInstr::Etrack => "activate TLB tracking for eviction",
            SgxInstr::Eaug => "add a page to an initialized enclave (SGX2)",
            SgxInstr::Emodpr => "restrict EPC page permissions (SGX2)",
            SgxInstr::Emodt => "change an EPC page's type (SGX2)",
            SgxInstr::Eenter => "enter an enclave",
            SgxInstr::Eexit => "exit an enclave synchronously",
            SgxInstr::Eresume => "resume an enclave after an interrupt",
            SgxInstr::Egetkey => "derive an enclave-specific key",
            SgxInstr::Ereport => "produce a report for local attestation",
            SgxInstr::Eaccept => "accept a pending page modification (SGX2)",
            SgxInstr::Emodpe => "extend EPC page permissions (SGX2)",
            SgxInstr::Eacceptcopy => "accept and initialize a copied page (SGX2)",
        }
    }
}

impl fmt::Display for SgxInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = format!("{self:?}").to_uppercase();
        f.write_str(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_24_instructions() {
        assert_eq!(SgxInstr::ALL.len(), 24);
    }

    #[test]
    fn all_lists_the_leaves_in_declaration_order() {
        // `SgxMachine` indexes its per-leaf counts by `instr as usize`.
        for (i, leaf) in SgxInstr::ALL.into_iter().enumerate() {
            assert_eq!(leaf as usize, i, "{leaf}");
        }
    }

    #[test]
    fn privileged_and_user_split() {
        let privileged = SgxInstr::ALL.iter().filter(|i| i.is_privileged()).count();
        assert_eq!(privileged, 16, "16 ENCLS leaves");
        assert_eq!(SgxInstr::ALL.len() - privileged, 8, "8 ENCLU leaves");
    }

    #[test]
    fn v2_leaves() {
        let v2: Vec<_> = SgxInstr::ALL
            .iter()
            .filter(|i| i.since() == SgxVersion::V2)
            .collect();
        assert_eq!(v2.len(), 6);
        assert!(SgxInstr::Emodpr.since() == SgxVersion::V2);
        assert!(SgxInstr::Ecreate.since() == SgxVersion::V1);
    }

    #[test]
    fn display_and_describe() {
        assert_eq!(SgxInstr::Ecreate.to_string(), "ECREATE");
        for i in SgxInstr::ALL {
            assert!(!i.describe().is_empty());
        }
    }

    #[test]
    fn versions_are_ordered() {
        assert!(SgxVersion::V1 < SgxVersion::V2);
    }
}
