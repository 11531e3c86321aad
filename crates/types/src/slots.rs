//! Dense row numbering for the announced /24 blocks of a window.
//!
//! The columnar traffic store in `mt-flow` keeps one row per announced
//! /24 instead of a hashmap entry per touched /24. That needs a stable,
//! dense mapping from [`Block24`] to a row id, valid for the lifetime
//! of one observation window: [`Slot24Index`].
//!
//! The index is compiled from a block-aligned [`RibIndex`]: the
//! resolved disjoint intervals are visited in ascending address order
//! (the order [`RibIndex::intervals`] reports — a deterministic
//! function of the RIB contents) and every /24 inside an interval gets
//! the next slot number. Two consequences the columnar store relies on:
//!
//! - **Stable row ids within a window.** Rebuilding the index from the
//!   same RIB yields the same block ↔ slot mapping, so shards built
//!   independently (ingest workers, a restarted service) agree on row
//!   numbering without coordination. The [`Slot24Index::fingerprint`]
//!   hash makes the agreement checkable: merges assert equal
//!   fingerprints instead of trusting the caller.
//! - **Slot order = address order.** Iterating rows in slot order
//!   yields blocks in ascending address order, which keeps columnar
//!   iteration deterministic without a sort.

use crate::block::Block24;
use crate::mix::mix3;
use crate::rib_index::RibIndex;

/// A dense, immutable `Block24 → row` mapping over the announced /24s
/// of one RIB snapshot.
///
/// ```
/// use mt_types::{Block24, Ipv4, PrefixTrie, RibIndex, Slot24Index};
/// let mut rib = PrefixTrie::new();
/// rib.insert("10.0.0.0/16".parse().unwrap(), ());
/// rib.insert("192.0.2.0/24".parse().unwrap(), ());
/// let slots = Slot24Index::build(&RibIndex::build(&rib));
/// assert_eq!(slots.num_slots(), 256 + 1);
/// let b = Block24::containing(Ipv4::new(10, 0, 5, 0));
/// let s = slots.slot_of(b).unwrap();
/// assert_eq!(slots.block_of(s), b);
/// assert_eq!(slots.slot_of(Block24::containing(Ipv4::new(11, 0, 0, 0))), None);
/// ```
#[derive(Debug, Clone)]
pub struct Slot24Index {
    /// First block of each interval, ascending.
    starts: Vec<u32>,
    /// Inclusive last block of each interval, parallel to `starts`.
    ends: Vec<u32>,
    /// `base[i]` is the slot number of `starts[i]`; slots within an
    /// interval are consecutive (`base[i] + (block - starts[i])`).
    base: Vec<u32>,
    /// Total number of slots (announced /24s).
    num_slots: u32,
    /// Order-sensitive hash of the interval list — equal fingerprints
    /// mean equal block ↔ slot mappings.
    fingerprint: u64,
}

impl Slot24Index {
    /// Compiles the slot mapping from a block-aligned [`RibIndex`].
    ///
    /// # Panics
    ///
    /// Panics when the index is not
    /// [block-aligned](RibIndex::is_block_aligned) (a prefix longer
    /// than /24 has no whole-block row) or when the announced space
    /// exceeds `u32::MAX` /24s (impossible for IPv4: there are only
    /// 2^24 blocks).
    pub fn build<V>(rib: &RibIndex<V>) -> Slot24Index {
        assert!(
            rib.is_block_aligned(),
            "Slot24Index requires a /24-aligned RibIndex"
        );
        let mut starts = Vec::with_capacity(rib.num_intervals());
        let mut ends = Vec::with_capacity(rib.num_intervals());
        let mut base = Vec::with_capacity(rib.num_intervals());
        let mut next: u64 = 0;
        let mut fingerprint: u64 = 0x510_72424; // arbitrary non-zero seed
        for (from, to) in rib.intervals() {
            let first = from.0 >> 8;
            let last = to.0 >> 8;
            starts.push(first);
            ends.push(last);
            base.push(next as u32);
            next += u64::from(last - first) + 1;
            fingerprint = mix3(fingerprint, u64::from(first), u64::from(last));
        }
        assert!(next <= u64::from(u32::MAX), "more slots than /24 blocks");
        Slot24Index {
            starts,
            ends,
            base,
            num_slots: next as u32,
            fingerprint,
        }
    }

    /// The row id of `block`, or `None` when the block is outside every
    /// announced interval.
    #[inline]
    pub fn slot_of(&self, block: Block24) -> Option<u32> {
        let n = self.starts.partition_point(|&s| s <= block.0);
        if n == 0 {
            return None;
        }
        let i = n - 1;
        if self.ends[i] >= block.0 {
            Some(self.base[i] + (block.0 - self.starts[i]))
        } else {
            None
        }
    }

    /// The block occupying row `slot`.
    ///
    /// # Panics
    ///
    /// Panics when `slot >= num_slots()`.
    #[inline]
    pub fn block_of(&self, slot: u32) -> Block24 {
        assert!(slot < self.num_slots, "slot {slot} out of range");
        let n = self.base.partition_point(|&b| b <= slot);
        // check: allow(no_panic, "num_slots > 0 implies at least one interval with base 0, so n >= 1")
        let i = n.checked_sub(1).expect("slot below first interval base");
        Block24(self.starts[i] + (slot - self.base[i]))
    }

    /// Total number of rows (announced /24 blocks).
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }

    /// Whether the index maps no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.num_slots == 0
    }

    /// Order-sensitive hash of the interval list. Two indexes with the
    /// same fingerprint define the same block ↔ slot mapping; columnar
    /// merges assert on it rather than trusting their caller.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Prefix;
    use crate::trie::PrefixTrie;

    fn index(prefixes: &[&str]) -> Slot24Index {
        let trie: PrefixTrie<()> = prefixes
            .iter()
            .map(|p| (p.parse::<Prefix>().unwrap(), ()))
            .collect();
        Slot24Index::build(&RibIndex::build(&trie))
    }

    #[test]
    fn empty_rib_empty_slots() {
        let s = index(&[]);
        assert!(s.is_empty());
        assert_eq!(s.num_slots(), 0);
        assert_eq!(s.slot_of(Block24(0)), None);
    }

    #[test]
    fn slots_are_dense_and_address_ordered() {
        let s = index(&["10.0.0.0/22", "192.0.2.0/24"]);
        assert_eq!(s.num_slots(), 5);
        let mut blocks: Vec<Block24> = (0..s.num_slots()).map(|i| s.block_of(i)).collect();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(s.slot_of(*b), Some(i as u32), "round trip for {b}");
        }
        blocks.dedup();
        assert_eq!(blocks.len(), 5, "all rows distinct");
        assert!(blocks.windows(2).all(|w| w[0] < w[1]), "ascending order");
    }

    #[test]
    fn gaps_map_to_none() {
        let s = index(&["10.0.0.0/24", "10.0.2.0/24"]);
        assert_eq!(s.num_slots(), 2);
        assert_eq!(s.slot_of(Block24(0x0a0000)), Some(0));
        assert_eq!(s.slot_of(Block24(0x0a0001)), None, "unannounced gap");
        assert_eq!(s.slot_of(Block24(0x0a0002)), Some(1));
        assert_eq!(s.slot_of(Block24(0)), None, "before first interval");
        assert_eq!(s.slot_of(Block24(0xffffff)), None, "after last interval");
    }

    #[test]
    fn overlapping_prefixes_resolve_to_one_slot_per_block() {
        // A /16 with a more specific /24 inside: the RibIndex splits it
        // into disjoint intervals, but every block still has one slot.
        let s = index(&["10.0.0.0/16", "10.0.128.0/24"]);
        assert_eq!(s.num_slots(), 256);
        let mut seen = std::collections::BTreeSet::new();
        for b in 0x0a0000u32..0x0a0100 {
            let slot = s.slot_of(Block24(b)).expect("inside the /16");
            assert!(seen.insert(slot), "slot {slot} assigned twice");
        }
    }

    #[test]
    fn fingerprint_tracks_the_mapping() {
        let a = index(&["10.0.0.0/22", "192.0.2.0/24"]);
        let b = index(&["10.0.0.0/22", "192.0.2.0/24"]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same RIB, same mapping");
        let c = index(&["10.0.0.0/22"]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = index(&["10.0.4.0/22", "192.0.2.0/24"]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    #[should_panic(expected = "requires a /24-aligned RibIndex")]
    fn unaligned_rib_is_rejected() {
        let mut t = PrefixTrie::new();
        t.insert("10.0.0.4/32".parse::<Prefix>().unwrap(), ());
        let _ = Slot24Index::build(&RibIndex::build(&t));
    }

    #[test]
    fn top_of_address_space() {
        // The last /24 of the IPv4 space must round-trip without
        // overflowing the block arithmetic.
        let s = index(&["255.255.255.0/24", "255.255.0.0/17"]);
        let last = Block24(0xffffff);
        let slot = s.slot_of(last).expect("announced");
        assert_eq!(s.block_of(slot), last);
        assert_eq!(s.num_slots(), 128 + 1);
    }
}
