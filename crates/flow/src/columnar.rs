//! Columnar per-/24 traffic accumulators — one dense row per announced
//! /24 instead of a hashmap entry per touched /24.
//!
//! At full-IPv4 scale (~16.8M announced /24s) the map-backed
//! [`TrafficStats`] pays a hash probe per record half and an
//! allocation per touched block, and its memory has hashmap constant
//! factors on top of the payload. [`ColumnarStats`] stores the same
//! aggregates struct-of-arrays: flat `u64` columns for the protocol
//! counters, four flat words per row for each 256-bit host set, and a
//! touched-row bitmap per side. The row id of a block is its
//! [`Slot24Index`] slot — a couple of binary searches over the
//! announced intervals — so lookups never hash and the columns are
//! allocated zeroed (`vec![0; n]` maps fresh pages lazily, so resident
//! memory scales with *touched* rows, not announced rows).
//!
//! Two sparse escape hatches keep semantics identical to the map
//! backend:
//!
//! - TCP size histograms are tiny and touch few rows, so they stay in
//!   a map keyed by row id rather than burning a column;
//! - traffic to or from blocks *outside* the announced space (no slot)
//!   falls back to an inner map-backed [`TrafficStats`] overflow store,
//!   so the columnar view still reports every sampled block.
//!
//! A [`ColumnarStats`] can also own just a *range* of rows
//! (`row_base .. row_base + rows`): that is how
//! [`ShardedTrafficStats`](crate::sharded::ShardedTrafficStats) splits
//! the announced space into contiguous slot-range shards. Merges
//! assert the [`Slot24Index::fingerprint`] so two stores are only ever
//! combined when they agree on the block ↔ row mapping.

use std::sync::Arc;

use crate::histogram::SizeHistogram;
use crate::record::FlowRecord;
use crate::stats::{
    add_protocol_counts, sweep_hosts, tcp_marks, DstRef, HostSet, SrcRef, TrafficStats, TrafficView,
};
use mt_types::{Block24, FxHashMap, Slot24Index};

/// Empty histogram handed out for rows that saw no TCP traffic.
static NO_SIZES: SizeHistogram = SizeHistogram::EMPTY;

/// Struct-of-arrays per-/24 traffic accumulator over the announced
/// blocks of one [`Slot24Index`] (or a contiguous row range of it).
#[derive(Debug, Clone)]
pub struct ColumnarStats {
    slots: Arc<Slot24Index>,
    /// First slot this store owns; row `i` holds slot `row_base + i`.
    row_base: u32,
    /// Number of rows owned.
    rows: u32,
    size_threshold: u16,

    // Destination-side columns, one entry per row.
    d_tcp_packets: Vec<u64>,
    d_tcp_octets: Vec<u64>,
    d_udp_packets: Vec<u64>,
    d_icmp_packets: Vec<u64>,
    d_other_packets: Vec<u64>,
    /// 256-bit host sets, four words per row.
    d_received: Vec<u64>,
    d_received_tcp: Vec<u64>,
    d_received_big_tcp: Vec<u64>,
    /// Bitmap of rows with any destination traffic.
    d_touched: Vec<u64>,
    /// TCP size histograms by row. Sparse on purpose: IBR has a handful
    /// of distinct sizes on a small fraction of rows, so a dense column
    /// per size would dwarf the payload.
    // check: allow(columnar_policy, "keyed by row id, not /24: sparse per-row histogram sidecar of the columnar store itself")
    d_tcp_sizes: FxHashMap<u32, SizeHistogram>,

    // Source-side columns.
    s_packets: Vec<u64>,
    /// 256-bit originating-host sets, four words per row.
    s_originating: Vec<u64>,
    /// Bitmap of rows with any source traffic.
    s_touched: Vec<u64>,

    /// Map-backed overflow for blocks outside the announced space
    /// (no slot). Carries its own totals for the records routed here.
    ovf: TrafficStats,

    // Record totals for the slot-backed rows (overflow totals live in
    // `ovf`); accessors report the sum.
    total_flows: u64,
    total_packets: u64,
    total_octets: u64,
}

/// Iterates the set bit positions of a packed bitmap, ascending.
fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Sets `host` in the 256-bit set stored at `row` of a 4-words-per-row
/// host-set column.
#[inline]
fn set_host(col: &mut [u64], row: usize, host: u8) {
    col[row * 4 + (host / 64) as usize] |= 1 << (host % 64);
}

/// Unions `hosts` into the 256-bit set stored at `row` of a column.
fn or_hosts(col: &mut [u64], row: usize, hosts: HostSet) {
    for (word, bits) in col[row * 4..row * 4 + 4].iter_mut().zip(hosts.to_words()) {
        *word |= bits;
    }
}

/// Reads the 256-bit host set stored at `row` back out of a column.
#[inline]
fn host_words(col: &[u64], row: usize) -> [u64; 4] {
    [
        col[row * 4],
        col[row * 4 + 1],
        col[row * 4 + 2],
        col[row * 4 + 3],
    ]
}

impl ColumnarStats {
    /// Creates an empty store covering every slot of `slots`, with the
    /// default per-host size threshold.
    pub fn new(slots: Arc<Slot24Index>) -> Self {
        Self::with_size_threshold(slots, crate::stats::DEFAULT_SIZE_THRESHOLD)
    }

    /// Creates an empty store covering every slot of `slots`, with a
    /// custom per-host size threshold (must match the pipeline's
    /// classification threshold).
    pub fn with_size_threshold(slots: Arc<Slot24Index>, size_threshold: u16) -> Self {
        let n = slots.num_slots();
        Self::slice(slots, size_threshold, 0, n)
    }

    /// Creates an empty store owning only rows
    /// `row_base .. row_base + rows` — the slot-range shard constructor.
    pub(crate) fn slice(
        slots: Arc<Slot24Index>,
        size_threshold: u16,
        row_base: u32,
        rows: u32,
    ) -> Self {
        assert!(
            u64::from(row_base) + u64::from(rows) <= u64::from(slots.num_slots()),
            "row range exceeds the slot index"
        );
        let n = rows as usize;
        let bitmap_words = n.div_ceil(64);
        ColumnarStats {
            slots,
            row_base,
            rows,
            size_threshold,
            d_tcp_packets: vec![0; n],
            d_tcp_octets: vec![0; n],
            d_udp_packets: vec![0; n],
            d_icmp_packets: vec![0; n],
            d_other_packets: vec![0; n],
            d_received: vec![0; n * 4],
            d_received_tcp: vec![0; n * 4],
            d_received_big_tcp: vec![0; n * 4],
            d_touched: vec![0; bitmap_words],
            d_tcp_sizes: FxHashMap::default(),
            s_packets: vec![0; n],
            s_originating: vec![0; n * 4],
            s_touched: vec![0; bitmap_words],
            ovf: TrafficStats::with_size_threshold(size_threshold),
            total_flows: 0,
            total_packets: 0,
            total_octets: 0,
        }
    }

    /// The slot index defining this store's block ↔ row mapping.
    pub fn slot_index(&self) -> &Arc<Slot24Index> {
        &self.slots
    }

    /// First slot owned by this store (0 for an unsharded store).
    pub fn row_base(&self) -> u32 {
        self.row_base
    }

    /// Number of rows owned by this store.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Builds stats from a slice of records.
    pub fn from_records(slots: Arc<Slot24Index>, records: &[FlowRecord]) -> Self {
        let mut s = Self::new(slots);
        for r in records {
            s.ingest(r);
        }
        s
    }

    /// Ingests one record.
    pub fn ingest(&mut self, r: &FlowRecord) {
        self.ingest_dst_half(r, None);
        self.ingest_src_half(r);
    }

    /// Ingests a host-sweep record (see
    /// [`TrafficStats::ingest_sweep`]): identical semantics on the
    /// columnar layout.
    pub fn ingest_sweep(&mut self, r: &FlowRecord, host_seed: u64) {
        self.ingest_dst_half(r, Some(host_seed));
        self.ingest_src_half(r);
    }

    /// The row owning `block`, when `block` has a slot in this store's
    /// range.
    #[inline]
    fn row_of(&self, block: Block24) -> Option<usize> {
        let slot = self.slots.slot_of(block)?;
        slot.checked_sub(self.row_base)
            .filter(|&r| r < self.rows)
            .map(|r| r as usize)
    }

    /// Converts a slot to a row of this store, asserting the slot is in
    /// range — a record whose block *has* a slot must only ever be
    /// ingested by the store owning that slot (the sharded router's
    /// contract); filing it in overflow instead would hide it from
    /// [`TrafficView::dst`].
    #[inline]
    fn owned_row(&self, slot: u32) -> usize {
        assert!(
            slot >= self.row_base && slot - self.row_base < self.rows,
            "record routed to a shard that does not own its slot"
        );
        (slot - self.row_base) as usize
    }

    /// The destination-side half of an ingest: record totals plus the
    /// per-dst-/24 update (a sweep when `sweep_seed` is set). Mirrors
    /// [`TrafficStats::ingest`] bit for bit; records whose destination
    /// block has no slot fall through to the map-backed overflow.
    pub(crate) fn ingest_dst_half(&mut self, r: &FlowRecord, sweep_seed: Option<u64>) {
        debug_assert!(r.packets > 0, "flow records carry at least one packet");
        let Some(slot) = self.slots.slot_of(Block24(r.dst.block24_index())) else {
            self.ovf.ingest_dst_half(r, sweep_seed);
            return;
        };
        let row = self.owned_row(slot);
        self.add_totals(1, r.packets, r.octets);
        set_bit(&mut self.d_touched, row);
        match sweep_seed {
            None => self.fold_dst_row(row, std::iter::once(r.dst.host_in_block24()), r),
            Some(seed) => self.fold_dst_row(row, sweep_hosts(seed, r.packets), r),
        }
    }

    /// The source-side half of an ingest (no totals; those ride with the
    /// destination half, exactly as in the map backend).
    pub(crate) fn ingest_src_half(&mut self, r: &FlowRecord) {
        let Some(slot) = self.slots.slot_of(Block24(r.src.block24_index())) else {
            self.ovf.ingest_src_half(r);
            return;
        };
        let row = self.owned_row(slot);
        set_bit(&mut self.s_touched, row);
        self.s_packets[row] = self.s_packets[row].saturating_add(r.packets);
        set_host(&mut self.s_originating, row, r.src.host_in_block24());
    }

    /// Folds one block's destination aggregates into its row (or the
    /// overflow when slotless) — the view-level mirror of
    /// [`ingest_dst_half`](Self::ingest_dst_half), without totals.
    pub(crate) fn merge_dst_view(&mut self, block: Block24, d: DstRef<'_>) {
        let Some(slot) = self.slots.slot_of(block) else {
            self.ovf.merge_dst_view(block, d);
            return;
        };
        let row = self.owned_row(slot);
        set_bit(&mut self.d_touched, row);
        self.d_tcp_packets[row] = self.d_tcp_packets[row].saturating_add(d.tcp_packets);
        self.d_tcp_octets[row] = self.d_tcp_octets[row].saturating_add(d.tcp_octets);
        self.d_udp_packets[row] = self.d_udp_packets[row].saturating_add(d.udp_packets);
        self.d_icmp_packets[row] = self.d_icmp_packets[row].saturating_add(d.icmp_packets);
        self.d_other_packets[row] = self.d_other_packets[row].saturating_add(d.other_packets);
        for (col, hosts) in [
            (&mut self.d_received, d.received),
            (&mut self.d_received_tcp, d.received_tcp),
            (&mut self.d_received_big_tcp, d.received_big_tcp),
        ] {
            or_hosts(col, row, hosts);
        }
        if !d.tcp_sizes.is_empty() {
            self.d_tcp_sizes
                .entry(row as u32)
                .or_default()
                .merge(d.tcp_sizes);
        }
    }

    /// Folds one block's source aggregates into its row (or the
    /// overflow when slotless).
    pub(crate) fn merge_src_view(&mut self, block: Block24, s: SrcRef) {
        let Some(slot) = self.slots.slot_of(block) else {
            self.ovf.merge_src_view(block, s);
            return;
        };
        let row = self.owned_row(slot);
        set_bit(&mut self.s_touched, row);
        self.s_packets[row] = self.s_packets[row].saturating_add(s.packets);
        or_hosts(&mut self.s_originating, row, s.originating);
    }

    /// Adds record totals that arrived without their records.
    pub(crate) fn add_totals(&mut self, flows: u64, packets: u64, octets: u64) {
        self.total_flows = self.total_flows.saturating_add(flows);
        self.total_packets = self.total_packets.saturating_add(packets);
        self.total_octets = self.total_octets.saturating_add(octets);
    }

    /// Columnar mirror of `DstBlockStats::fold`: the record's packets
    /// reached `hosts` of the block at `row`.
    fn fold_dst_row(&mut self, row: usize, hosts: impl Iterator<Item = u8>, r: &FlowRecord) {
        let (tcp, big) = tcp_marks(r, self.size_threshold);
        for host in hosts {
            set_host(&mut self.d_received, row, host);
            if tcp {
                set_host(&mut self.d_received_tcp, row, host);
            }
            if big {
                set_host(&mut self.d_received_big_tcp, row, host);
            }
        }
        add_protocol_counts(
            r,
            [
                &mut self.d_tcp_packets[row],
                &mut self.d_tcp_octets[row],
                &mut self.d_udp_packets[row],
                &mut self.d_icmp_packets[row],
                &mut self.d_other_packets[row],
            ],
            || self.d_tcp_sizes.entry(row as u32).or_default(),
        );
    }

    /// Assembles the by-value view of a touched row.
    fn dst_row_ref(&self, row: usize) -> DstRef<'_> {
        DstRef {
            tcp_packets: self.d_tcp_packets[row],
            tcp_octets: self.d_tcp_octets[row],
            udp_packets: self.d_udp_packets[row],
            icmp_packets: self.d_icmp_packets[row],
            other_packets: self.d_other_packets[row],
            received: crate::stats::HostSet::from_words(host_words(&self.d_received, row)),
            received_tcp: crate::stats::HostSet::from_words(host_words(&self.d_received_tcp, row)),
            received_big_tcp: crate::stats::HostSet::from_words(host_words(
                &self.d_received_big_tcp,
                row,
            )),
            tcp_sizes: self.d_tcp_sizes.get(&(row as u32)).unwrap_or(&NO_SIZES),
        }
    }

    fn src_row_ref(&self, row: usize) -> SrcRef {
        SrcRef {
            packets: self.s_packets[row],
            originating: crate::stats::HostSet::from_words(host_words(&self.s_originating, row)),
        }
    }

    /// Merges another columnar store over the *same rows of the same
    /// slot index* into this one.
    ///
    /// # Panics
    ///
    /// Panics when the slot-index fingerprints, row ranges, or size
    /// thresholds differ — merging stores that disagree on the block ↔
    /// row mapping would silently attribute traffic to wrong blocks.
    pub fn merge(&mut self, other: &ColumnarStats) {
        assert_eq!(
            self.slots.fingerprint(),
            other.slots.fingerprint(),
            "merging columnar stats built over different slot indexes"
        );
        assert_eq!(
            (self.row_base, self.rows),
            (other.row_base, other.rows),
            "merging columnar stats over different row ranges"
        );
        assert_eq!(
            self.size_threshold, other.size_threshold,
            "merging stats with different host-size thresholds"
        );
        for (a, b) in self.d_tcp_packets.iter_mut().zip(&other.d_tcp_packets) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.d_tcp_octets.iter_mut().zip(&other.d_tcp_octets) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.d_udp_packets.iter_mut().zip(&other.d_udp_packets) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.d_icmp_packets.iter_mut().zip(&other.d_icmp_packets) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.d_other_packets.iter_mut().zip(&other.d_other_packets) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.s_packets.iter_mut().zip(&other.s_packets) {
            *a = a.saturating_add(*b);
        }
        for (col, other_col) in [
            (&mut self.d_received, &other.d_received),
            (&mut self.d_received_tcp, &other.d_received_tcp),
            (&mut self.d_received_big_tcp, &other.d_received_big_tcp),
            (&mut self.s_originating, &other.s_originating),
            (&mut self.d_touched, &other.d_touched),
            (&mut self.s_touched, &other.s_touched),
        ] {
            for (a, b) in col.iter_mut().zip(other_col) {
                *a |= b;
            }
        }
        for (&row, sizes) in &other.d_tcp_sizes {
            self.d_tcp_sizes.entry(row).or_default().merge(sizes);
        }
        self.ovf.merge(&other.ovf);
        self.add_totals(other.total_flows, other.total_packets, other.total_octets);
    }
}

impl TrafficView for ColumnarStats {
    fn dst(&self, block: Block24) -> Option<DstRef<'_>> {
        match self.row_of(block) {
            Some(row) => get_bit(&self.d_touched, row).then(|| self.dst_row_ref(row)),
            None if self.slots.slot_of(block).is_none() => TrafficView::dst(&self.ovf, block),
            None => None,
        }
    }

    fn src(&self, block: Block24) -> Option<SrcRef> {
        match self.row_of(block) {
            Some(row) => get_bit(&self.s_touched, row).then(|| self.src_row_ref(row)),
            None if self.slots.slot_of(block).is_none() => TrafficView::src(&self.ovf, block),
            None => None,
        }
    }

    fn iter_dst(&self) -> impl Iterator<Item = (Block24, DstRef<'_>)> {
        iter_bits(&self.d_touched)
            .map(|row| {
                let block = self.slots.block_of(self.row_base + row as u32);
                (block, self.dst_row_ref(row))
            })
            .chain(TrafficView::iter_dst(&self.ovf))
    }

    fn iter_src(&self) -> impl Iterator<Item = (Block24, SrcRef)> {
        iter_bits(&self.s_touched)
            .map(|row| {
                let block = self.slots.block_of(self.row_base + row as u32);
                (block, self.src_row_ref(row))
            })
            .chain(TrafficView::iter_src(&self.ovf))
    }

    fn dst_block_count(&self) -> usize {
        let rows: u32 = self.d_touched.iter().map(|w| w.count_ones()).sum();
        rows as usize + self.ovf.dst_block_count()
    }

    fn src_block_count(&self) -> usize {
        let rows: u32 = self.s_touched.iter().map(|w| w.count_ones()).sum();
        rows as usize + self.ovf.src_block_count()
    }

    fn size_threshold(&self) -> u16 {
        self.size_threshold
    }

    fn total_flows(&self) -> u64 {
        self.total_flows.saturating_add(self.ovf.total_flows)
    }

    fn total_packets(&self) -> u64 {
        self.total_packets.saturating_add(self.ovf.total_packets)
    }

    fn total_octets(&self) -> u64 {
        self.total_octets.saturating_add(self.ovf.total_octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::{Ipv4, Prefix, PrefixTrie, RibIndex, SimTime};

    fn slots(prefixes: &[&str]) -> Arc<Slot24Index> {
        let trie: PrefixTrie<()> = prefixes
            .iter()
            .map(|p| (p.parse::<Prefix>().unwrap(), ()))
            .collect();
        Arc::new(Slot24Index::build(&RibIndex::build(&trie)))
    }

    fn flow(src: Ipv4, dst: Ipv4, proto: u8, packets: u64, size: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src,
            dst,
            src_port: 1000,
            dst_port: 23,
            protocol: proto,
            tcp_flags: if proto == 6 { 0x02 } else { 0 },
            packets,
            octets: packets * size,
        }
    }

    fn sample_records() -> Vec<FlowRecord> {
        (0u32..400)
            .map(|i| {
                flow(
                    Ipv4(0x0900_0000 + (i % 37) * 256 + (i % 11)),
                    Ipv4(0x0a00_0000 + (i % 53) * 256 + (i % 7)),
                    if i % 3 == 0 { 6 } else { 17 },
                    1 + u64::from(i % 5),
                    40 + u64::from(i % 4) * 500,
                )
            })
            .collect()
    }

    /// Asserts every observable of the two views is identical.
    fn assert_views_equal(a: &impl TrafficView, b: &impl TrafficView) {
        assert_eq!(a.total_flows(), b.total_flows());
        assert_eq!(a.total_packets(), b.total_packets());
        assert_eq!(a.total_octets(), b.total_octets());
        assert_eq!(a.dst_block_count(), b.dst_block_count());
        assert_eq!(a.src_block_count(), b.src_block_count());
        assert_eq!(a.size_threshold(), b.size_threshold());
        let mut a_dst: Vec<Block24> = a.iter_dst().map(|(blk, _)| blk).collect();
        let mut b_dst: Vec<Block24> = b.iter_dst().map(|(blk, _)| blk).collect();
        a_dst.sort_unstable();
        b_dst.sort_unstable();
        assert_eq!(a_dst, b_dst, "same destination block sets");
        for blk in a_dst {
            let x = a.dst(blk).unwrap();
            let y = b.dst(blk).unwrap();
            assert_eq!(x.tcp_packets, y.tcp_packets, "{blk}");
            assert_eq!(x.tcp_octets, y.tcp_octets);
            assert_eq!(x.udp_packets, y.udp_packets);
            assert_eq!(x.icmp_packets, y.icmp_packets);
            assert_eq!(x.other_packets, y.other_packets);
            assert_eq!(x.received, y.received);
            assert_eq!(x.received_tcp, y.received_tcp);
            assert_eq!(x.received_big_tcp, y.received_big_tcp);
            assert_eq!(x.tcp_size_histogram(), y.tcp_size_histogram());
        }
        let mut a_src: Vec<Block24> = a.iter_src().map(|(blk, _)| blk).collect();
        let mut b_src: Vec<Block24> = b.iter_src().map(|(blk, _)| blk).collect();
        a_src.sort_unstable();
        b_src.sort_unstable();
        assert_eq!(a_src, b_src, "same source block sets");
        for blk in a_src {
            assert_eq!(a.src(blk).unwrap(), b.src(blk).unwrap(), "{blk}");
        }
    }

    #[test]
    fn columnar_matches_map_backend_when_fully_announced() {
        let records = sample_records();
        let slots = slots(&["9.0.0.0/16", "10.0.0.0/16"]);
        let col = ColumnarStats::from_records(slots, &records);
        let map = TrafficStats::from_records(&records);
        assert_views_equal(&col, &map);
    }

    #[test]
    fn unannounced_traffic_lands_in_overflow_and_still_matches() {
        let records = sample_records();
        // Only the dst /16 is announced: every source block overflows.
        let slots = slots(&["10.0.0.0/16"]);
        let col = ColumnarStats::from_records(slots, &records);
        let map = TrafficStats::from_records(&records);
        assert_views_equal(&col, &map);
    }

    #[test]
    fn empty_slot_index_is_all_overflow() {
        let records = sample_records();
        let col = ColumnarStats::from_records(slots(&[]), &records);
        let map = TrafficStats::from_records(&records);
        assert_views_equal(&col, &map);
    }

    #[test]
    fn sweeps_match_map_backend() {
        let records = sample_records();
        let slots = slots(&["9.0.0.0/16", "10.0.0.0/16"]);
        let mut col = ColumnarStats::new(slots);
        let mut map = TrafficStats::new();
        for (i, r) in records.iter().enumerate() {
            if i % 4 == 0 {
                col.ingest_sweep(r, i as u64);
                map.ingest_sweep(r, i as u64);
            } else {
                col.ingest(r);
                map.ingest(r);
            }
        }
        assert_views_equal(&col, &map);
    }

    #[test]
    fn iter_dst_is_in_ascending_block_order_for_slot_rows() {
        let records = sample_records();
        let slots = slots(&["9.0.0.0/16", "10.0.0.0/16"]);
        let col = ColumnarStats::from_records(slots, &records);
        let blocks: Vec<Block24> = TrafficView::iter_dst(&col).map(|(b, _)| b).collect();
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "slot-order iteration is address-order"
        );
    }

    #[test]
    fn merge_matches_combined_ingest() {
        let records = sample_records();
        let (first, second) = records.split_at(150);
        let slots = slots(&["10.0.0.0/16"]);
        let mut a = ColumnarStats::from_records(Arc::clone(&slots), first);
        let b = ColumnarStats::from_records(Arc::clone(&slots), second);
        a.merge(&b);
        let combined = ColumnarStats::from_records(slots, &records);
        assert_views_equal(&a, &combined);
    }

    #[test]
    #[should_panic(expected = "different slot indexes")]
    fn merge_rejects_mismatched_slot_indexes() {
        let mut a = ColumnarStats::new(slots(&["10.0.0.0/16"]));
        a.merge(&ColumnarStats::new(slots(&["11.0.0.0/16"])));
    }

    #[test]
    fn routed_row_slices_reassemble_to_the_full_store() {
        // Two slices over [0, lo) and [lo, n), each fed only the record
        // halves it owns (slotless halves go to slice `a`): merging the
        // materialized slices reproduces the flat map backend.
        let records = sample_records();
        let slots = slots(&["9.0.0.0/16", "10.0.0.0/16"]);
        let n = slots.num_slots();
        let lo = n / 2;
        let mut a = ColumnarStats::slice(Arc::clone(&slots), 60, 0, lo);
        let mut b = ColumnarStats::slice(Arc::clone(&slots), 60, lo, n - lo);
        for r in &records {
            match slots.slot_of(Block24(r.dst.block24_index())) {
                Some(s) if s >= lo => b.ingest_dst_half(r, None),
                _ => a.ingest_dst_half(r, None),
            }
            match slots.slot_of(Block24(r.src.block24_index())) {
                Some(s) if s >= lo => b.ingest_src_half(r),
                _ => a.ingest_src_half(r),
            }
        }
        let mut merged = TrafficStats::from_view(&a);
        merged.merge(&TrafficStats::from_view(&b));
        assert_views_equal(&merged, &TrafficStats::from_records(&records));
    }

    #[test]
    #[should_panic(expected = "does not own its slot")]
    fn misrouted_slot_half_is_rejected() {
        let slots = slots(&["10.0.0.0/16"]);
        let n = slots.num_slots();
        // Slice owning only the upper half must reject a record whose
        // destination slot is 0.
        let mut upper = ColumnarStats::slice(Arc::clone(&slots), 60, n / 2, n - n / 2);
        let r = flow(Ipv4::new(9, 0, 0, 1), Ipv4::new(10, 0, 0, 5), 6, 1, 40);
        upper.ingest_dst_half(&r, None);
    }

    #[test]
    fn from_view_roundtrips_to_map_backend() {
        let records = sample_records();
        let slots = slots(&["10.0.0.0/16"]);
        let col = ColumnarStats::from_records(slots, &records);
        let map = TrafficStats::from_view(&col);
        assert_views_equal(&map, &col);
        assert_views_equal(&map, &TrafficStats::from_records(&records));
    }
}
