//! x86-64 general-purpose register names.

use std::fmt;

/// A 64-bit general-purpose register (the 16 GPRs of x86-64).
///
/// The discriminant is the hardware register number: the 3-bit ModRM/SIB
/// field value, extended to 4 bits by the relevant REX bit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Reg {
    /// Accumulator.
    Rax = 0,
    /// Counter.
    Rcx = 1,
    /// Data.
    Rdx = 2,
    /// Base.
    Rbx = 3,
    /// Stack pointer.
    Rsp = 4,
    /// Frame pointer.
    Rbp = 5,
    /// Source index.
    Rsi = 6,
    /// Destination index.
    Rdi = 7,
    /// Extended register 8.
    R8 = 8,
    /// Extended register 9.
    R9 = 9,
    /// Extended register 10.
    R10 = 10,
    /// Extended register 11.
    R11 = 11,
    /// Extended register 12.
    R12 = 12,
    /// Extended register 13.
    R13 = 13,
    /// Extended register 14.
    R14 = 14,
    /// Extended register 15.
    R15 = 15,
}

impl Reg {
    /// All sixteen registers, in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Builds a register from a REX extension bit and a 3-bit field.
    pub fn from_bits(rex_bit: bool, low3: u8) -> Reg {
        Reg::ALL[((rex_bit as usize) << 3) | (low3 & 7) as usize]
    }

    /// The 3-bit encoding (ModRM/SIB field value, without the REX bit).
    pub fn low3(self) -> u8 {
        (self as u8) & 7
    }

    /// True for R8–R15 (encoding requires a REX extension bit).
    pub fn needs_rex_bit(self) -> bool {
        (self as u8) >= 8
    }

    /// The 64-bit AT&T-style name (`%rax`, `%r12`, …).
    pub fn name64(self) -> &'static str {
        match self {
            Reg::Rax => "%rax",
            Reg::Rcx => "%rcx",
            Reg::Rdx => "%rdx",
            Reg::Rbx => "%rbx",
            Reg::Rsp => "%rsp",
            Reg::Rbp => "%rbp",
            Reg::Rsi => "%rsi",
            Reg::Rdi => "%rdi",
            Reg::R8 => "%r8",
            Reg::R9 => "%r9",
            Reg::R10 => "%r10",
            Reg::R11 => "%r11",
            Reg::R12 => "%r12",
            Reg::R13 => "%r13",
            Reg::R14 => "%r14",
            Reg::R15 => "%r15",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name64())
    }
}

/// A set of general-purpose registers: bit `r` stands for the register
/// with encoding `r`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct RegSet(u16);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// The set holding exactly `regs`.
    pub fn of(regs: &[Reg]) -> RegSet {
        regs.iter().fold(RegSet::EMPTY, |s, &r| s.with(r))
    }

    /// `self` plus `r`.
    #[must_use]
    pub const fn with(self, r: Reg) -> RegSet {
        RegSet(self.0 | 1 << (r as u8))
    }

    /// True when `r` is in the set.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & 1 << (r as u8) != 0
    }

    /// The set read as REX-less 8-bit operands: encodings 4–7 name
    /// `%ah`, `%ch`, `%dh`, `%bh` — bits 8–15 of `%rax`–`%rbx`.
    #[must_use]
    pub fn legacy_bytes(self) -> RegSet {
        RegSet(self.0 & !0xf0 | (self.0 & 0xf0) >> 4)
    }

    /// The registers in the set, in encoding order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let r = Reg::ALL.get(bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(*r)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        for (i, &r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r as u8, i as u8);
            assert_eq!(Reg::from_bits(i >= 8, (i % 8) as u8), r);
            assert_eq!(r.low3(), (i % 8) as u8);
            assert_eq!(r.needs_rex_bit(), i >= 8);
        }
    }

    #[test]
    fn reg_set_membership() {
        let s = RegSet::of(&[Reg::Rax, Reg::Rdx, Reg::R15]);
        assert!(s.contains(Reg::Rdx) && !s.contains(Reg::Rbp));
        assert_eq!(s.iter().collect::<Vec<_>>(), [Reg::Rax, Reg::Rdx, Reg::R15]);
        assert_eq!(RegSet::EMPTY.with(Reg::Rbp), RegSet::of(&[Reg::Rbp]));
        assert_eq!(RegSet::EMPTY.iter().count(), 0);
        // %ah/%bh and %cl: bits of %rax, %rbx and %rcx; %r12b stays.
        let bytes = RegSet::of(&[Reg::Rsp, Reg::Rdi, Reg::Rcx, Reg::R12]).legacy_bytes();
        assert_eq!(bytes, RegSet::of(&[Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::R12]));
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::Rax.to_string(), "%rax");
        assert_eq!(Reg::R15.to_string(), "%r15");
        assert_eq!(Reg::Rsp.name64(), "%rsp");
    }
}
