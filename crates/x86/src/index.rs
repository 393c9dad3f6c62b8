//! The instruction index: address → instruction, in O(1), built once
//! per decoded text.
//!
//! Every consumer of a decoded text asks the same question — "which
//! instruction, if any, starts at this address?" — for branch targets,
//! reachability roots, symbol addresses and resolved indirect targets.
//! [`InsnIndex`] answers it from one bit per text byte (set where an
//! instruction starts) plus a rank directory: the answer is the number
//! of starts below the address, which for a buffer in address order is
//! the instruction's index. That is 16 bytes per 64 text bytes, a
//! quarter of a byte per text byte, with one word load, a mask and a
//! popcount per lookup.
//!
//! [`RankBitmap`] is the structure underneath, over any dense range of
//! positions; the analysis engine reuses it to map an instruction index
//! to the basic block it leads.

use crate::insn::Insn;

/// 64 positions and the number of set positions before them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Word {
    bits: u64,
    rank: usize,
}

/// A fixed set of positions in `0..len` answering "is `i` in the set,
/// and how many members lie below it?" in O(1).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RankBitmap {
    words: Vec<Word>,
    len: usize,
    ones: usize,
}

impl RankBitmap {
    /// The set of `positions` within `0..len`. Positions at or past
    /// `len` are ignored; order and repeats do not matter.
    pub fn new(len: usize, positions: impl IntoIterator<Item = usize>) -> RankBitmap {
        let mut words = vec![Word::default(); len.div_ceil(64)];
        for p in positions {
            if p < len {
                words[p / 64].bits |= 1 << (p % 64);
            }
        }
        let mut ones = 0;
        for w in &mut words {
            w.rank = ones;
            ones += w.bits.count_ones() as usize;
        }
        RankBitmap { words, len, ones }
    }

    /// The number of positions the bitmap spans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap spans no position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of members.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// `Some(k)` when `i` is a member and `k` members lie below it.
    pub fn rank(&self, i: usize) -> Option<usize> {
        let w = self.words.get(i / 64)?;
        let bit = 1u64 << (i % 64);
        (w.bits & bit != 0).then(|| w.rank + (w.bits & (bit - 1)).count_ones() as usize)
    }
}

/// Address → index of the instruction starting there, over one decoded
/// text.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InsnIndex {
    base: u64,
    starts: RankBitmap,
}

impl InsnIndex {
    /// Indexes `insns`, which must be in strictly increasing address
    /// order without overlap, as [`crate::decode::decode_all`] and the
    /// loader produce them. The index spans `insns[0].addr` to the end
    /// of the last instruction.
    pub fn new(insns: &[Insn]) -> InsnIndex {
        let (Some(first), Some(last)) = (insns.first(), insns.last()) else {
            return InsnIndex::default();
        };
        let base = first.addr;
        // An offset too wide for `usize` (a host narrower than 64 bits)
        // lands past the span, where the bitmap ignores it.
        let offset = |i: &Insn| usize::try_from(i.addr.wrapping_sub(base)).unwrap_or(usize::MAX);
        let span = offset(last).saturating_add(usize::from(last.len));
        InsnIndex {
            base,
            starts: RankBitmap::new(span, insns.iter().map(offset)),
        }
    }

    /// The index of the instruction starting at `addr`, if one does.
    /// Any `u64` is a valid question: addresses outside the text, and
    /// bytes inside an instruction, answer `None`.
    pub fn get(&self, addr: u64) -> Option<usize> {
        let off = usize::try_from(addr.checked_sub(self.base)?).ok()?;
        self.starts.rank(off)
    }

    /// True when an instruction starts at `addr`.
    pub fn contains(&self, addr: u64) -> bool {
        self.get(addr).is_some()
    }

    /// True when `addr` lies inside the indexed text, at an instruction
    /// start or not.
    pub fn covers(&self, addr: u64) -> bool {
        addr.checked_sub(self.base)
            .is_some_and(|off| off < self.starts.len() as u64)
    }

    /// The number of instructions indexed.
    pub fn len(&self) -> usize {
        self.starts.count()
    }

    /// True when no instruction is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_all;

    #[test]
    fn rank_counts_members_below() {
        let b = RankBitmap::new(200, [0, 3, 63, 64, 130, 199, 250]);
        assert_eq!(b.len(), 200);
        assert_eq!(b.count(), 6, "250 lies past len");
        let members: Vec<(usize, usize)> =
            (0..300).filter_map(|i| b.rank(i).map(|k| (i, k))).collect();
        assert_eq!(
            members,
            [(0, 0), (3, 1), (63, 2), (64, 3), (130, 4), (199, 5)]
        );
    }

    #[test]
    fn empty_bitmap_and_index_answer_none() {
        let b = RankBitmap::new(0, []);
        assert!(b.is_empty());
        assert_eq!(b.rank(0), None);
        let index = InsnIndex::new(&[]);
        assert!(index.is_empty());
        for addr in [0, 1, u64::MAX] {
            assert_eq!(index.get(addr), None);
            assert!(!index.covers(addr));
        }
    }

    #[test]
    fn index_finds_starts_and_rejects_interior_bytes() {
        // push %rbp; mov %rsp,%rbp; pop %rbp; ret
        let code = [0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3];
        let insns = decode_all(&code, 0x1000).expect("decodes");
        let index = InsnIndex::new(&insns);
        assert_eq!(index.len(), 4);
        let found: Vec<Option<usize>> = (0x0fff..0x1007).map(|a| index.get(a)).collect();
        assert_eq!(
            found,
            [None, Some(0), Some(1), None, None, Some(2), Some(3), None]
        );
        assert!(!index.covers(0x0fff));
        assert!(index.covers(0x1002));
        assert!(!index.covers(0x1006));
    }
}
