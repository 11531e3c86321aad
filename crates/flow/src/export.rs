//! Owned column slices: the interchange form between live traffic
//! accumulators and the results store.
//!
//! A [`TrafficView`] hands out borrowed per-/24 rows; persisting a
//! closed window needs an owned, ordered, representation-independent
//! snapshot of those rows. [`ColumnSlices`] is that snapshot, made of
//! the map backend's own [`DstBlockStats`]/[`SrcBlockStats`] rows: every
//! announced /24 keyed by its `Slot24Index` slot id (ascending), every
//! unannounced straggler keyed by its raw `Block24` id in overflow
//! lists, plus the window totals. The store codec (mt-store) serialises
//! exactly this shape column by column; [`ColumnSlices::to_stats`]
//! rebuilds a [`TrafficStats`] that merges bit-identically with live
//! accumulators, which is what the store-equivalence invariant pins.

use crate::stats::{DstBlockStats, SrcBlockStats, TrafficStats, TrafficView};
use mt_types::{Block24, Slot24Index};
use std::cmp::Ordering;

/// An owned, slot-ordered snapshot of one window's traffic aggregates.
///
/// Rows for announced space are keyed by `Slot24Index` slot id; rows
/// for blocks outside the index (traffic to space the RIB never
/// announced) land in the overflow lists keyed by raw `Block24` id.
/// All four lists are sorted ascending by key, which makes merge a
/// linear zip and gives the store codec monotone id streams to
/// delta-encode. The rows are the accumulators' own
/// [`DstBlockStats`]/[`SrcBlockStats`], so a snapshot merges with the
/// rows' merge and the codec reads and writes their fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSlices {
    /// Destination rows for announced /24s: `(slot id, row)` ascending.
    pub dst: Vec<(u32, DstBlockStats)>,
    /// Source rows for announced /24s: `(slot id, row)` ascending.
    pub src: Vec<(u32, SrcBlockStats)>,
    /// Destination rows outside the slot index: `(Block24 id, row)`.
    pub ovf_dst: Vec<(u32, DstBlockStats)>,
    /// Source rows outside the slot index: `(Block24 id, row)`.
    pub ovf_src: Vec<(u32, SrcBlockStats)>,
    /// Ingest size threshold the rows were accumulated under.
    pub size_threshold: u16,
    /// Total sampled flow records.
    pub total_flows: u64,
    /// Total sampled packets.
    pub total_packets: u64,
    /// Total sampled octets.
    pub total_octets: u64,
}

impl ColumnSlices {
    /// An empty snapshot at the given size threshold.
    pub fn empty(size_threshold: u16) -> ColumnSlices {
        ColumnSlices {
            dst: Vec::new(),
            src: Vec::new(),
            ovf_dst: Vec::new(),
            ovf_src: Vec::new(),
            size_threshold,
            total_flows: 0,
            total_packets: 0,
            total_octets: 0,
        }
    }

    /// Snapshots a live traffic view into owned, slot-ordered columns.
    ///
    /// The row vectors are sized from the view's block counts up front,
    /// and each list is sorted by a cached key: a sort of `(id, index)`
    /// pairs and one permutation of the rows. Sorting the rows
    /// themselves (176 bytes each for a destination, its TCP size
    /// histogram in place) moved every row many times.
    pub fn export<V: TrafficView>(view: &V, slots: &Slot24Index) -> ColumnSlices {
        let mut out = ColumnSlices::empty(view.size_threshold());
        out.total_flows = view.total_flows();
        out.total_packets = view.total_packets();
        out.total_octets = view.total_octets();
        out.dst.reserve(view.dst_block_count());
        out.src.reserve(view.src_block_count());
        for (block, d) in view.iter_dst() {
            let mut row = DstBlockStats::default();
            row.merge_ref(d);
            match slots.slot_of(block) {
                Some(slot) => out.dst.push((slot, row)),
                None => out.ovf_dst.push((block.0, row)),
            }
        }
        for (block, s) in view.iter_src() {
            let mut row = SrcBlockStats::default();
            row.merge_ref(s);
            match slots.slot_of(block) {
                Some(slot) => out.src.push((slot, row)),
                None => out.ovf_src.push((block.0, row)),
            }
        }
        // Keys are unique within a list, so the order is the one any
        // sort by key gives.
        out.dst.sort_by_cached_key(|&(id, _)| id);
        out.src.sort_by_cached_key(|&(id, _)| id);
        out.ovf_dst.sort_by_cached_key(|&(id, _)| id);
        out.ovf_src.sort_by_cached_key(|&(id, _)| id);
        out
    }

    /// Rebuilds a map-layout accumulator from the snapshot. The result
    /// merges bit-identically with live stats built from the same
    /// traffic — the property the store-equivalence test pins.
    pub fn to_stats(&self, slots: &Slot24Index) -> TrafficStats {
        let mut out = TrafficStats::with_size_threshold(self.size_threshold);
        for &(slot, ref row) in &self.dst {
            out.merge_dst_view(slots.block_of(slot), row.as_ref());
        }
        for &(slot, ref row) in &self.src {
            out.merge_src_view(slots.block_of(slot), row.as_ref());
        }
        for &(id, ref row) in &self.ovf_dst {
            out.merge_dst_view(Block24(id), row.as_ref());
        }
        for &(id, ref row) in &self.ovf_src {
            out.merge_src_view(Block24(id), row.as_ref());
        }
        out.total_flows = self.total_flows;
        out.total_packets = self.total_packets;
        out.total_octets = self.total_octets;
        out
    }

    /// Folds another snapshot over the same slot index into this one:
    /// a linear zip on the sorted key lists, row merges where keys
    /// collide. Both snapshots must share a size threshold.
    pub fn merge(&mut self, other: &ColumnSlices) {
        assert_eq!(
            self.size_threshold, other.size_threshold,
            "merging column slices with different size thresholds"
        );
        merge_rows(&mut self.dst, &other.dst, DstBlockStats::merge);
        merge_rows(&mut self.src, &other.src, SrcBlockStats::merge);
        merge_rows(&mut self.ovf_dst, &other.ovf_dst, DstBlockStats::merge);
        merge_rows(&mut self.ovf_src, &other.ovf_src, SrcBlockStats::merge);
        self.total_flows = self.total_flows.saturating_add(other.total_flows);
        self.total_packets = self.total_packets.saturating_add(other.total_packets);
        self.total_octets = self.total_octets.saturating_add(other.total_octets);
    }
}

/// Merges sorted `(key, row)` lists in place, keeping order: a row
/// whose key is already present is folded where it sits; new keys grow
/// the vector by their count and are merged in from the back, so an old
/// row moves at most once and no second vector is allocated. When every
/// key of `from` is already present — the steady state of a running
/// summary — nothing moves at all.
fn merge_rows<R: Clone + Default>(
    into: &mut Vec<(u32, R)>,
    from: &[(u32, R)],
    mut fold: impl FnMut(&mut R, &R),
) {
    if into.is_empty() {
        into.extend_from_slice(from);
        return;
    }
    let mut new = 0;
    let mut rows = into.iter_mut().peekable();
    for (key, row) in from {
        while rows.next_if(|r| r.0 < *key).is_some() {}
        match rows.next_if(|r| r.0 == *key) {
            Some(r) => fold(&mut r.1, row),
            None => new += 1,
        }
    }
    if new == 0 {
        return;
    }
    // `into[..old]` are old rows not yet placed, `into[free..]` is
    // final; the `free - old` slots between hold moved-out defaults.
    let mut old = into.len();
    into.resize_with(old + new, Default::default);
    let mut free = into.len();
    let mut next = from.iter().rev();
    let mut pending = next.next();
    while free > old {
        let Some((key, row)) = pending else { break };
        match old.checked_sub(1).map(|last| into[last].0.cmp(key)) {
            Some(Ordering::Greater) => {
                old -= 1;
                free -= 1;
                into.swap(old, free);
            }
            // Folded by the first pass.
            Some(Ordering::Equal) => pending = next.next(),
            _ => {
                free -= 1;
                into[free] = (*key, row.clone());
                pending = next.next();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::HostSet;
    use mt_types::mix::mix3;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The zip merge `merge_rows` replaced: a fresh vector, every row
    /// moved or cloned into it.
    fn zip_merge_rows<R: Clone>(
        into: &mut Vec<(u32, R)>,
        from: &[(u32, R)],
        mut fold: impl FnMut(&mut R, &R),
    ) {
        if from.is_empty() {
            return;
        }
        let old = std::mem::take(into);
        let mut out = Vec::with_capacity(old.len() + from.len());
        let mut ai = old.into_iter();
        let mut bi = from.iter();
        let mut a = ai.next();
        let mut b = bi.next();
        loop {
            match (a.take(), b.take()) {
                (Some(x), Some(y)) => {
                    if x.0 < y.0 {
                        out.push(x);
                        a = ai.next();
                        b = Some(y);
                    } else if y.0 < x.0 {
                        out.push(y.clone());
                        a = Some(x);
                        b = bi.next();
                    } else {
                        let mut row = x;
                        fold(&mut row.1, &y.1);
                        out.push(row);
                        a = ai.next();
                        b = bi.next();
                    }
                }
                (Some(x), None) => {
                    out.push(x);
                    a = ai.next();
                }
                (None, Some(y)) => {
                    out.push(y.clone());
                    b = bi.next();
                }
                (None, None) => break,
            }
        }
        *into = out;
    }

    /// A counter that is sometimes near `u64::MAX`, so folds saturate.
    fn count(h: u64) -> u64 {
        if h.is_multiple_of(11) {
            u64::MAX - h % 5
        } else {
            h % 100_000
        }
    }

    fn dst_row(key: u32, side: u64) -> DstBlockStats {
        let h = |i: u64| mix3(u64::from(key), side, i);
        // Most rows carry a few ascending TCP sizes, some none.
        let sizes = (h(0) % 4) as u16;
        DstBlockStats {
            tcp_packets: count(h(1)),
            tcp_octets: count(h(2)),
            udp_packets: count(h(3)),
            icmp_packets: count(h(4)),
            other_packets: count(h(5)),
            received: HostSet::from_words([h(6), 0, h(7), 0]),
            received_tcp: HostSet::from_words([0, h(8), 0, 0]),
            received_big_tcp: HostSet::from_words([0, 0, 0, h(9)]),
            tcp_sizes: (0..sizes)
                .map(|k| {
                    (
                        40 + k * (1 + (h(10) % 7) as u16),
                        count(h(11 + u64::from(k))),
                    )
                })
                .collect(),
        }
    }

    fn src_row(key: u32, side: u64) -> SrcBlockStats {
        SrcBlockStats {
            packets: count(mix3(u64::from(key), side, 1)),
            originating: HostSet::from_words([mix3(u64::from(key), side, 2), 0, 0, 1]),
        }
    }

    /// Two ascending key lists in one relation: disjoint, overlapping,
    /// `from` a subset of `into`, a superset of it, or either empty.
    fn key_sets(base: u32) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
        let set = || {
            proptest::collection::vec(base..base + 96, 0..40)
                .prop_map(|keys| keys.into_iter().collect::<BTreeSet<u32>>())
        };
        (set(), set(), 0u8..6).prop_map(|(x, y, relation)| {
            let (into, from): (BTreeSet<u32>, BTreeSet<u32>) = match relation {
                0 => (y.difference(&x).copied().collect(), x),
                1 => (x, y),
                2 => (x.clone(), x.intersection(&y).copied().collect()),
                3 => (x.intersection(&y).copied().collect(), x),
                4 => (BTreeSet::new(), y),
                _ => (x, BTreeSet::new()),
            };
            (into.into_iter().collect(), from.into_iter().collect())
        })
    }

    /// One snapshot per side over the four lists' keys; overflow keys
    /// live far above any slot id, as raw `Block24` ids do.
    fn slices(keys: [&Vec<u32>; 4], side: u64) -> ColumnSlices {
        let mut c = ColumnSlices::empty(300);
        c.dst = keys[0].iter().map(|&k| (k, dst_row(k, side))).collect();
        c.src = keys[1].iter().map(|&k| (k, src_row(k, side))).collect();
        c.ovf_dst = keys[2].iter().map(|&k| (k, dst_row(k, side))).collect();
        c.ovf_src = keys[3].iter().map(|&k| (k, src_row(k, side))).collect();
        c.total_flows = count(side);
        c.total_packets = 7 * side;
        c.total_octets = u64::MAX - side;
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place merge yields exactly the zip merge's lists and
        /// totals, and so does merging the same snapshot a second time,
        /// when every one of its keys is already present.
        #[test]
        fn in_place_merge_equals_the_zip_merge(
            dst in key_sets(0),
            src in key_sets(0),
            ovf_dst in key_sets(0x00ff_0000),
            ovf_src in key_sets(0x00ff_0000),
        ) {
            let into = slices([&dst.0, &src.0, &ovf_dst.0, &ovf_src.0], 1);
            let from = slices([&dst.1, &src.1, &ovf_dst.1, &ovf_src.1], 2);
            let mut merged = into.clone();
            let mut zipped = into;
            for _ in 0..2 {
                merged.merge(&from);
                zip_merge_rows(&mut zipped.dst, &from.dst, DstBlockStats::merge);
                zip_merge_rows(&mut zipped.src, &from.src, SrcBlockStats::merge);
                zip_merge_rows(&mut zipped.ovf_dst, &from.ovf_dst, DstBlockStats::merge);
                zip_merge_rows(&mut zipped.ovf_src, &from.ovf_src, SrcBlockStats::merge);
                zipped.total_flows = zipped.total_flows.saturating_add(from.total_flows);
                zipped.total_packets = zipped.total_packets.saturating_add(from.total_packets);
                zipped.total_octets = zipped.total_octets.saturating_add(from.total_octets);
                prop_assert_eq!(&merged, &zipped);
            }
        }
    }
}
