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
    pub fn export<V: TrafficView>(view: &V, slots: &Slot24Index) -> ColumnSlices {
        let mut out = ColumnSlices::empty(view.size_threshold());
        out.total_flows = view.total_flows();
        out.total_packets = view.total_packets();
        out.total_octets = view.total_octets();
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
        out.dst.sort_unstable_by_key(|&(id, _)| id);
        out.src.sort_unstable_by_key(|&(id, _)| id);
        out.ovf_dst.sort_unstable_by_key(|&(id, _)| id);
        out.ovf_src.sort_unstable_by_key(|&(id, _)| id);
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

    /// Total rows across the four lists.
    pub fn rows(&self) -> usize {
        self.dst.len() + self.src.len() + self.ovf_dst.len() + self.ovf_src.len()
    }
}

/// Merges sorted `(key, row)` lists: zip, fold collisions, keep order.
fn merge_rows<R: Clone>(
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
