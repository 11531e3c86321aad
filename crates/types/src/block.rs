//! /24 blocks and dense sets of them.
//!
//! The paper's entire inference pipeline operates at /24 granularity:
//! filters count packets per /24, classification labels a /24 as dark,
//! unclean or gray, and the final meta-telescope is a *set of /24 blocks*.
//! [`Block24`] is a dense index of such a block (there are exactly 2^24 of
//! them in the IPv4 space) and [`Block24Set`] is a bitset over the whole
//! space — at 2 MiB it is small enough to pass around freely, and set
//! algebra (union across vantage points, intersection across days, as in
//! Figures 8 and 9) becomes word-wise bit operations.

use crate::ipv4::Ipv4;
use crate::prefix::Prefix;
use std::fmt;

/// Number of /24 blocks in the IPv4 address space.
pub const NUM_BLOCKS: u32 = 1 << 24;

/// A /24 IPv4 block, identified by its dense index (`address >> 8`).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct Block24(pub u32);

impl Block24 {
    /// The block containing `addr`.
    pub const fn containing(addr: Ipv4) -> Self {
        Block24(addr.0 >> 8)
    }

    /// First address of the block (`x.y.z.0`).
    pub const fn base(self) -> Ipv4 {
        Ipv4(self.0 << 8)
    }

    /// Last address of the block (`x.y.z.255`).
    pub const fn last(self) -> Ipv4 {
        Ipv4((self.0 << 8) | 0xff)
    }

    /// The specific address `base + host`.
    pub const fn addr(self, host: u8) -> Ipv4 {
        Ipv4((self.0 << 8) | host as u32)
    }

    /// Whether `addr` falls inside this block.
    pub const fn contains(self, addr: Ipv4) -> bool {
        addr.0 >> 8 == self.0
    }

    /// The /24 as a [`Prefix`].
    pub fn prefix(self) -> Prefix {
        Prefix::containing(self.base(), 24)
    }
}

impl fmt::Display for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/24", self.base())
    }
}

impl fmt::Debug for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block24({self})")
    }
}

const WORDS: usize = (NUM_BLOCKS as usize) / 64;

/// A dense bitset over all 2^24 /24 blocks of the IPv4 space.
///
/// Fixed 2 MiB footprint regardless of population. Set algebra is used
/// heavily by the pipeline (per-vantage-point results, per-day
/// intersections, spoofing-tolerance adjustments), so union / intersection /
/// difference are provided as whole-set word-wise operations.
///
/// ```
/// use mt_types::{Block24, Block24Set, Ipv4};
/// let mut dark = Block24Set::new();
/// dark.insert(Block24::containing(Ipv4::new(20, 0, 0, 0)));
/// dark.insert(Block24::containing(Ipv4::new(20, 0, 1, 0)));
/// assert_eq!(dark.len(), 2);
/// // Contiguous runs aggregate into CIDR prefixes:
/// assert_eq!(dark.aggregate()[0].to_string(), "20.0.0.0/23");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Block24Set {
    words: Vec<u64>,
}

impl Default for Block24Set {
    fn default() -> Self {
        Self::new()
    }
}

impl Block24Set {
    /// Creates an empty set.
    pub fn new() -> Self {
        Block24Set {
            words: vec![0u64; WORDS],
        }
    }

    /// Inserts a block; returns `true` if it was newly inserted.
    pub fn insert(&mut self, b: Block24) -> bool {
        let (w, bit) = Self::slot(b);
        let had = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !had
    }

    /// Removes a block; returns `true` if it was present.
    pub fn remove(&mut self, b: Block24) -> bool {
        let (w, bit) = Self::slot(b);
        let had = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        had
    }

    /// Membership test.
    pub fn contains(&self, b: Block24) -> bool {
        let (w, bit) = Self::slot(b);
        self.words[w] & bit != 0
    }

    /// Number of blocks in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all blocks.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &Block24Set) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &Block24Set) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    pub fn difference_with(&mut self, other: &Block24Set) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns a new set that is the union of the two.
    pub fn union(&self, other: &Block24Set) -> Block24Set {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns a new set that is the intersection of the two.
    pub fn intersection(&self, other: &Block24Set) -> Block24Set {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns a new set with the blocks of `self` not in `other`.
    pub fn difference(&self, other: &Block24Set) -> Block24Set {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Number of blocks present in both sets, without allocating.
    pub fn intersection_len(&self, other: &Block24Set) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the blocks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Block24> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            BitIter { word: w }.map(move |bit| Block24((wi as u32) * 64 + bit))
        })
    }

    /// Counts the blocks of this set inside `prefix`.
    ///
    /// This is the "prefix index" numerator of the paper's Section 6.4.
    pub fn count_in_prefix(&self, prefix: Prefix) -> usize {
        if prefix.len() > 24 {
            // A sub-/24 prefix contains at most its covering block.
            return usize::from(self.contains(Block24::containing(prefix.base())));
        }
        let first = prefix.base().0 >> 8;
        let count = 1u32 << (24 - prefix.len());
        let mut total = 0usize;
        let mut idx = first;
        let end = first + count;
        // Whole-word fast path once aligned.
        while idx < end && !idx.is_multiple_of(64) {
            total += usize::from(self.contains(Block24(idx)));
            idx += 1;
        }
        while idx + 64 <= end {
            total += self.words[(idx / 64) as usize].count_ones() as usize;
            idx += 64;
        }
        while idx < end {
            total += usize::from(self.contains(Block24(idx)));
            idx += 1;
        }
        total
    }

    /// Aggregates the set into a minimal list of CIDR prefixes (each
    /// /24 or shorter) that covers exactly these blocks.
    ///
    /// This is how an operator turns hundreds of thousands of inferred
    /// /24s into a compact monitor list: contiguous dark ranges collapse
    /// into /9s, /13s, ... — the paper's Section 6.2 observes exactly
    /// such large aggregates.
    ///
    /// Greedy and optimal for CIDR aggregation: at each position take
    /// the largest aligned power-of-two run fully contained in the set.
    pub fn aggregate(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut iter = self.iter().peekable();
        while let Some(first) = iter.next() {
            // Extend the contiguous run.
            let mut last = first;
            while let Some(next) = iter.next_if_eq(&Block24(last.0 + 1)) {
                last = next;
            }
            // Emit aligned power-of-two chunks covering [first, last].
            let mut start = first.0;
            let end = last.0;
            while start <= end {
                // Largest alignment of `start`, capped by remaining span.
                let align = if start == 0 {
                    1 << 24
                } else {
                    1u32 << start.trailing_zeros()
                };
                let mut size = align.min(1 << 24);
                let remaining = end - start + 1;
                while size > remaining {
                    size /= 2;
                }
                let len = 24 - size.trailing_zeros() as u8;
                out.push(Prefix::containing(Block24(start).base(), len));
                start += size;
                if start == 0 {
                    break; // wrapped past the end of the space
                }
            }
        }
        out
    }

    #[inline]
    fn slot(b: Block24) -> (usize, u64) {
        debug_assert!(b.0 < NUM_BLOCKS);
        ((b.0 / 64) as usize, 1u64 << (b.0 % 64))
    }
}

impl fmt::Debug for Block24Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block24Set({} blocks)", self.len())
    }
}

impl FromIterator<Block24> for Block24Set {
    fn from_iter<I: IntoIterator<Item = Block24>>(iter: I) -> Self {
        let mut s = Self::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_address() {
        let a = Ipv4::new(198, 51, 100, 42);
        let b = Block24::containing(a);
        assert_eq!(b.base(), Ipv4::new(198, 51, 100, 0));
        assert_eq!(b.last(), Ipv4::new(198, 51, 100, 255));
        assert!(b.contains(a));
        assert!(!b.contains(Ipv4::new(198, 51, 101, 0)));
        assert_eq!(b.to_string(), "198.51.100.0/24");
    }

    #[test]
    fn block_addr_builds_hosts() {
        let b = Block24::containing(Ipv4::new(10, 0, 0, 0));
        assert_eq!(b.addr(0), Ipv4::new(10, 0, 0, 0));
        assert_eq!(b.addr(255), Ipv4::new(10, 0, 0, 255));
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = Block24Set::new();
        let b = Block24(12345);
        assert!(!s.contains(b));
        assert!(s.insert(b));
        assert!(!s.insert(b), "second insert reports not-new");
        assert!(s.contains(b));
        assert_eq!(s.len(), 1);
        assert!(s.remove(b));
        assert!(!s.remove(b));
        assert!(s.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = Block24Set::from_iter([Block24(1), Block24(2), Block24(3)]);
        let b = Block24Set::from_iter([Block24(2), Block24(3), Block24(4)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.intersection_len(&b), 2);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(Block24(1)));
    }

    #[test]
    fn set_iter_is_sorted_and_complete() {
        let blocks = [
            Block24(0),
            Block24(63),
            Block24(64),
            Block24(65),
            Block24(NUM_BLOCKS - 1),
        ];
        let s = Block24Set::from_iter(blocks);
        let got: Vec<Block24> = s.iter().collect();
        assert_eq!(got, blocks);
    }

    #[test]
    fn count_in_prefix_matches_manual_count() {
        let mut s = Block24Set::new();
        // Populate half of 10.0.0.0/22 (blocks 10.0.0/24 and 10.0.2/24).
        s.insert(Block24::containing(Ipv4::new(10, 0, 0, 0)));
        s.insert(Block24::containing(Ipv4::new(10, 0, 2, 0)));
        s.insert(Block24::containing(Ipv4::new(10, 1, 0, 0))); // outside
        let p = Prefix::new(Ipv4::new(10, 0, 0, 0), 22).unwrap();
        assert_eq!(s.count_in_prefix(p), 2);
    }

    #[test]
    fn count_in_prefix_whole_word_path() {
        let mut s = Block24Set::new();
        let base = Ipv4::new(10, 0, 0, 0);
        // Fill an entire /16 (256 blocks, crossing word boundaries).
        for i in 0..256 {
            s.insert(Block24(base.block24_index() + i));
        }
        let p = Prefix::new(base, 16).unwrap();
        assert_eq!(s.count_in_prefix(p), 256);
        let p8 = Prefix::new(base, 8).unwrap();
        assert_eq!(s.count_in_prefix(p8), 256);
    }

    #[test]
    fn aggregate_collapses_contiguous_runs() {
        // A full /22 plus a lone /24.
        let mut s = Block24Set::new();
        for b in Prefix::new(Ipv4::new(10, 0, 0, 0), 22).unwrap().blocks24() {
            s.insert(b);
        }
        s.insert(Block24::containing(Ipv4::new(10, 9, 9, 0)));
        let cidrs = s.aggregate();
        assert_eq!(
            cidrs,
            vec![
                Prefix::new(Ipv4::new(10, 0, 0, 0), 22).unwrap(),
                Prefix::new(Ipv4::new(10, 9, 9, 0), 24).unwrap(),
            ]
        );
    }

    #[test]
    fn aggregate_respects_alignment() {
        // Blocks 1..=4 (base 10.0.1.0): misaligned run → /24 + /23 + /24.
        let s: Block24Set = (1u32..=4).map(|i| Block24((10 << 16) | i)).collect();
        let cidrs = s.aggregate();
        assert_eq!(
            cidrs,
            vec![
                Prefix::new(Ipv4::new(10, 0, 1, 0), 24).unwrap(),
                Prefix::new(Ipv4::new(10, 0, 2, 0), 23).unwrap(),
                Prefix::new(Ipv4::new(10, 0, 4, 0), 24).unwrap(),
            ]
        );
    }

    #[test]
    fn aggregate_roundtrips_exactly() {
        let s: Block24Set = [0u32, 1, 2, 3, 7, 64, 65, 66, 1 << 20]
            .into_iter()
            .map(Block24)
            .collect();
        let cidrs = s.aggregate();
        let mut back = Block24Set::new();
        for p in &cidrs {
            for b in p.blocks24() {
                assert!(back.insert(b), "prefixes must not overlap");
            }
        }
        assert_eq!(back, s);
    }

    #[test]
    fn aggregate_of_empty_set() {
        assert!(Block24Set::new().aggregate().is_empty());
    }

    #[test]
    fn count_in_prefix_sub_24() {
        let mut s = Block24Set::new();
        s.insert(Block24::containing(Ipv4::new(10, 0, 0, 0)));
        let p = Prefix::new(Ipv4::new(10, 0, 0, 128), 25).unwrap();
        assert_eq!(s.count_in_prefix(p), 1);
        let q = Prefix::new(Ipv4::new(10, 0, 1, 0), 25).unwrap();
        assert_eq!(s.count_in_prefix(q), 0);
    }
}
