//! Sharded per-/24 traffic accumulators for parallel pipeline
//! evaluation.
//!
//! [`ShardedTrafficStats`] splits the /24 key space over `N` fixed
//! shards. Two layouts exist ([`StatsLayout`]):
//!
//! - **Map** (the default): each shard is a hashmap-backed
//!   [`TrafficStats`] owning the blocks with `block_index % N == shard`.
//! - **Columnar**: each shard is a [`ColumnarStats`] owning a
//!   *contiguous slot range* of a shared [`Slot24Index`] — shard
//!   `slot / ceil(num_slots / N)`. Blocks outside the announced space
//!   (no slot) route by `block_index % N` into that shard's map-backed
//!   overflow store.
//!
//! Crucially, in both layouts the *same* shard function is used for
//! destination and source blocks, so everything the inference pipeline
//! needs about a block — its receive-side stats *and* its send-side
//! stats (step 3 looks up `src(block)` while walking destination
//! blocks) — lives in one shard. Each shard is therefore a
//! self-contained [`TrafficView`] over its slice of the key space, and
//! the pipeline can run per shard with no cross-shard reads.
//!
//! A shard can also be folded alone: a stream keeps one open day's
//! shards each behind its own lock, routes every record half with
//! [`StatsLayout::shard_of`] and folds it through
//! [`StatsShard::ingest_dst_half`] / [`StatsShard::ingest_src_half`],
//! then rebuilds the day with [`ShardedTrafficStats::from_shards`].
//! Per-block accumulation is order-independent, so however the folds
//! interleave the result equals a serial ingest bit for bit.
//!
//! [`ShardedTrafficStats::into_unsharded`] reassembles a flat
//! [`TrafficStats`] for call sites that still want one; since shard key
//! spaces are disjoint this moves (map layout) or materializes
//! (columnar layout) blocks instead of re-merging them.
//! [`ShardedTrafficStats::from_unsharded`] is its inverse.

use std::sync::Arc;

use crate::columnar::ColumnarStats;
use crate::record::FlowRecord;
use crate::stats::{DstRef, SrcRef, TrafficStats, TrafficView};
use mt_types::{Block24, Slot24Index};

/// Default shard count: enough slots to spread work over commodity core
/// counts while keeping per-shard state dense.
pub const DEFAULT_SHARDS: usize = 16;

/// How a [`ShardedTrafficStats`] stores and routes its per-/24 state.
#[derive(Debug, Clone, Default)]
pub enum StatsLayout {
    /// Hashmap-backed shards keyed by `block_index % N`.
    #[default]
    Map,
    /// Columnar shards, each owning a contiguous slot range of the
    /// given index; slotless blocks fall back to `block_index % N`.
    Columnar(Arc<Slot24Index>),
}

impl StatsLayout {
    /// The shard owning `block` when the key space is split over
    /// `num_shards` shards — the one routing rule, used for destination
    /// and source keys alike.
    pub fn shard_of(&self, num_shards: usize, block: Block24) -> usize {
        self.route(num_shards, self.rows_per_shard(num_shards), block)
    }

    /// Slots per columnar shard (0 under the map layout); at least 1 so
    /// `slot / rows_per_shard` is defined even for an empty index.
    fn rows_per_shard(&self, num_shards: usize) -> u32 {
        match self {
            StatsLayout::Map => 0,
            StatsLayout::Columnar(slots) => slots.num_slots().div_ceil(num_shards as u32).max(1),
        }
    }

    fn route(&self, num_shards: usize, rows_per_shard: u32, block: Block24) -> usize {
        match self {
            StatsLayout::Map => block.0 as usize % num_shards,
            StatsLayout::Columnar(slots) => match slots.slot_of(block) {
                Some(slot) => ((slot / rows_per_shard) as usize).min(num_shards - 1),
                None => block.0 as usize % num_shards,
            },
        }
    }
}

/// One shard of a [`ShardedTrafficStats`]: either layout's accumulator,
/// viewed uniformly through [`TrafficView`].
#[derive(Debug, Clone)]
// Shards live in one short Vec (one element per shard, never per
// record), so the per-variant size gap has no memory impact and boxing
// would only add a pointer chase to every ingest dispatch.
#[allow(clippy::large_enum_variant)]
pub enum StatsShard {
    /// A hashmap-backed shard (map layout).
    Map(TrafficStats),
    /// A slot-range columnar shard (columnar layout).
    Columnar(ColumnarStats),
}

impl StatsShard {
    /// Folds the destination half of `r` (record totals plus its
    /// destination block, a host sweep when `sweep_seed` is set) into
    /// this shard, which must own the destination block.
    pub fn ingest_dst_half(&mut self, r: &FlowRecord, sweep_seed: Option<u64>) {
        match self {
            StatsShard::Map(s) => s.ingest_dst_half(r, sweep_seed),
            StatsShard::Columnar(c) => c.ingest_dst_half(r, sweep_seed),
        }
    }

    /// Folds the source half of `r` into this shard, which must own
    /// the source block.
    pub fn ingest_src_half(&mut self, r: &FlowRecord) {
        match self {
            StatsShard::Map(s) => s.ingest_src_half(r),
            StatsShard::Columnar(c) => c.ingest_src_half(r),
        }
    }

    fn merge_dst_view(&mut self, block: Block24, d: DstRef<'_>) {
        match self {
            StatsShard::Map(s) => s.merge_dst_view(block, d),
            StatsShard::Columnar(c) => c.merge_dst_view(block, d),
        }
    }

    fn merge_src_view(&mut self, block: Block24, s: SrcRef) {
        match self {
            StatsShard::Map(m) => m.merge_src_view(block, s),
            StatsShard::Columnar(c) => c.merge_src_view(block, s),
        }
    }

    fn add_totals(&mut self, flows: u64, packets: u64, octets: u64) {
        match self {
            StatsShard::Map(s) => s.add_totals(flows, packets, octets),
            StatsShard::Columnar(c) => c.add_totals(flows, packets, octets),
        }
    }

    fn merge(&mut self, other: &StatsShard) {
        match (self, other) {
            (StatsShard::Map(a), StatsShard::Map(b)) => a.merge(b),
            // Asserts that both sides share one slot index.
            (StatsShard::Columnar(a), StatsShard::Columnar(b)) => a.merge(b),
            // check: allow(no_panic, "rejecting a map ↔ columnar merge is ShardedTrafficStats::merge's contract, mirroring its shard-count assert")
            _ => panic!("merging sharded stats with different layouts"),
        }
    }
}

impl TrafficView for StatsShard {
    fn dst(&self, block: Block24) -> Option<DstRef<'_>> {
        match self {
            StatsShard::Map(s) => TrafficView::dst(s, block),
            StatsShard::Columnar(c) => TrafficView::dst(c, block),
        }
    }

    fn src(&self, block: Block24) -> Option<SrcRef> {
        match self {
            StatsShard::Map(s) => TrafficView::src(s, block),
            StatsShard::Columnar(c) => TrafficView::src(c, block),
        }
    }

    fn iter_dst(&self) -> impl Iterator<Item = (Block24, DstRef<'_>)> {
        match self {
            StatsShard::Map(s) => {
                Box::new(TrafficView::iter_dst(s)) as Box<dyn Iterator<Item = _> + '_>
            }
            StatsShard::Columnar(c) => Box::new(TrafficView::iter_dst(c)),
        }
    }

    fn iter_src(&self) -> impl Iterator<Item = (Block24, SrcRef)> {
        match self {
            StatsShard::Map(s) => {
                Box::new(TrafficView::iter_src(s)) as Box<dyn Iterator<Item = _> + '_>
            }
            StatsShard::Columnar(c) => Box::new(TrafficView::iter_src(c)),
        }
    }

    fn dst_block_count(&self) -> usize {
        match self {
            StatsShard::Map(s) => s.dst_block_count(),
            StatsShard::Columnar(c) => TrafficView::dst_block_count(c),
        }
    }

    fn src_block_count(&self) -> usize {
        match self {
            StatsShard::Map(s) => s.src_block_count(),
            StatsShard::Columnar(c) => TrafficView::src_block_count(c),
        }
    }

    fn size_threshold(&self) -> u16 {
        match self {
            StatsShard::Map(s) => s.size_threshold(),
            StatsShard::Columnar(c) => TrafficView::size_threshold(c),
        }
    }

    fn total_flows(&self) -> u64 {
        match self {
            StatsShard::Map(s) => s.total_flows,
            StatsShard::Columnar(c) => TrafficView::total_flows(c),
        }
    }

    fn total_packets(&self) -> u64 {
        match self {
            StatsShard::Map(s) => s.total_packets,
            StatsShard::Columnar(c) => TrafficView::total_packets(c),
        }
    }

    fn total_octets(&self) -> u64 {
        match self {
            StatsShard::Map(s) => s.total_octets,
            StatsShard::Columnar(c) => TrafficView::total_octets(c),
        }
    }
}

/// Per-/24 traffic aggregates split over fixed shards.
#[derive(Debug, Clone)]
pub struct ShardedTrafficStats {
    shards: Vec<StatsShard>,
    layout: StatsLayout,
    /// Slots per columnar shard (0 under the map layout).
    rows_per_shard: u32,
}

impl Default for ShardedTrafficStats {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl ShardedTrafficStats {
    /// Creates an empty map-layout accumulator with `num_shards` shards
    /// and the default per-host size threshold.
    pub fn new(num_shards: usize) -> Self {
        Self::with_size_threshold(num_shards, crate::stats::DEFAULT_SIZE_THRESHOLD)
    }

    /// Creates an empty map-layout accumulator with a custom per-host
    /// size threshold (must match the pipeline's classification
    /// threshold).
    pub fn with_size_threshold(num_shards: usize, size_threshold: u16) -> Self {
        Self::with_layout(num_shards, size_threshold, StatsLayout::Map)
    }

    /// Creates an empty accumulator with an explicit storage layout.
    pub fn with_layout(num_shards: usize, size_threshold: u16, layout: StatsLayout) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let rows_per_shard = layout.rows_per_shard(num_shards);
        let shards = match &layout {
            StatsLayout::Map => (0..num_shards)
                .map(|_| StatsShard::Map(TrafficStats::with_size_threshold(size_threshold)))
                .collect(),
            StatsLayout::Columnar(slots) => (0..num_shards as u32)
                .map(|i| {
                    let row_base = (i * rows_per_shard).min(slots.num_slots());
                    let rows = rows_per_shard.min(slots.num_slots() - row_base);
                    StatsShard::Columnar(ColumnarStats::slice(
                        Arc::clone(slots),
                        size_threshold,
                        row_base,
                        rows,
                    ))
                })
                .collect(),
        };
        ShardedTrafficStats {
            shards,
            layout,
            rows_per_shard,
        }
    }

    /// Rebuilds an accumulator from the shards of one built with
    /// `layout` ([`into_shards`](Self::into_shards)), in shard order.
    /// Shard key spaces are disjoint, so nothing is merged.
    pub fn from_shards(layout: StatsLayout, shards: Vec<StatsShard>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        ShardedTrafficStats {
            rows_per_shard: layout.rows_per_shard(shards.len()),
            shards,
            layout,
        }
    }

    /// The per-shard accumulators, in shard order, each to be folded
    /// alone (see the module docs).
    pub fn into_shards(self) -> Vec<StatsShard> {
        self.shards
    }

    /// Number of shards the key space is split over.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The storage layout this accumulator was built with.
    pub fn layout(&self) -> &StatsLayout {
        &self.layout
    }

    /// The shard owning `block` ([`StatsLayout::shard_of`]).
    pub fn shard_of(&self, block: Block24) -> usize {
        StatsLayout::route(&self.layout, self.shards.len(), self.rows_per_shard, block)
    }

    /// The per-shard accumulators, in shard order.
    pub fn shards(&self) -> &[StatsShard] {
        &self.shards
    }

    /// Destination blocks held per shard, in shard order — the load
    /// signal behind the `mt_flow_shard_blocks` gauges: a skewed vector
    /// flags a pathological key (map layout) or announcement (columnar
    /// layout) distribution, whose cost at ingest shows as ingest
    /// workers queueing on one hot shard lock.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(TrafficView::dst_block_count)
            .collect()
    }

    /// Ingests one record, routing its destination half to the shard
    /// owning the destination block and its source half to the shard
    /// owning the source block.
    pub fn ingest(&mut self, r: &FlowRecord) {
        self.route(r, None);
    }

    /// Ingests a host-sweep record (see
    /// [`TrafficStats::ingest_sweep`]), with the same shard routing as
    /// [`ingest`](Self::ingest).
    pub fn ingest_sweep(&mut self, r: &FlowRecord, host_seed: u64) {
        self.route(r, Some(host_seed));
    }

    fn route(&mut self, r: &FlowRecord, sweep_seed: Option<u64>) {
        let dst_shard = self.shard_of(Block24(r.dst.block24_index()));
        let src_shard = self.shard_of(Block24(r.src.block24_index()));
        self.shards[dst_shard].ingest_dst_half(r, sweep_seed);
        self.shards[src_shard].ingest_src_half(r);
    }

    /// Builds map-layout stats from a slice of records serially.
    pub fn from_records(num_shards: usize, records: &[FlowRecord]) -> Self {
        let mut s = Self::new(num_shards);
        for r in records {
            s.ingest(r);
        }
        s
    }

    /// Merges another sharded accumulator shard-by-shard. Both sides
    /// must have the same shard count and the same layout (same shard
    /// function; for columnar layouts, the same slot-index fingerprint).
    pub fn merge(&mut self, other: &ShardedTrafficStats) {
        assert_eq!(
            self.shards.len(),
            other.shards.len(),
            "merging sharded stats with different shard counts"
        );
        // Each shard pair checks the layouts agree before it merges, so
        // a mismatch panics at the first pair, with nothing merged.
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.merge(theirs);
        }
    }

    /// Reassembles a flat [`TrafficStats`] (escape hatch for call sites
    /// that need the unsharded representation). Shard key spaces are
    /// disjoint, so map-layout blocks are moved, not re-merged;
    /// columnar shards are materialized row by row.
    pub fn into_unsharded(self) -> TrafficStats {
        let mut out = TrafficStats::with_size_threshold(TrafficView::size_threshold(&self));
        for shard in self.shards {
            out.absorb_disjoint(match shard {
                StatsShard::Map(s) => s,
                StatsShard::Columnar(c) => TrafficStats::from_view(&c),
            });
        }
        out
    }

    /// Splits a flat accumulator over `num_shards` shards of `layout` —
    /// the inverse of [`into_unsharded`](Self::into_unsharded), which
    /// lets a running combination resume from persisted stats. Record
    /// totals ride with shard 0, so the shard sums equal the flat ones.
    pub fn from_unsharded(stats: &TrafficStats, num_shards: usize, layout: StatsLayout) -> Self {
        let mut out = Self::with_layout(num_shards, stats.size_threshold(), layout);
        for (block, d) in TrafficView::iter_dst(stats) {
            let shard = out.shard_of(block);
            out.shards[shard].merge_dst_view(block, d);
        }
        for (block, s) in TrafficView::iter_src(stats) {
            let shard = out.shard_of(block);
            out.shards[shard].merge_src_view(block, s);
        }
        out.shards[0].add_totals(stats.total_flows, stats.total_packets, stats.total_octets);
        out
    }
}

impl TrafficView for ShardedTrafficStats {
    fn dst(&self, block: Block24) -> Option<DstRef<'_>> {
        TrafficView::dst(&self.shards[self.shard_of(block)], block)
    }

    fn src(&self, block: Block24) -> Option<SrcRef> {
        TrafficView::src(&self.shards[self.shard_of(block)], block)
    }

    fn iter_dst(&self) -> impl Iterator<Item = (Block24, DstRef<'_>)> {
        self.shards.iter().flat_map(TrafficView::iter_dst)
    }

    fn iter_src(&self) -> impl Iterator<Item = (Block24, SrcRef)> {
        self.shards.iter().flat_map(TrafficView::iter_src)
    }

    fn dst_block_count(&self) -> usize {
        self.shards.iter().map(TrafficView::dst_block_count).sum()
    }

    fn src_block_count(&self) -> usize {
        self.shards.iter().map(TrafficView::src_block_count).sum()
    }

    fn size_threshold(&self) -> u16 {
        TrafficView::size_threshold(&self.shards[0])
    }

    fn total_flows(&self) -> u64 {
        self.shards
            .iter()
            .map(TrafficView::total_flows)
            .fold(0, u64::saturating_add)
    }

    fn total_packets(&self) -> u64 {
        self.shards
            .iter()
            .map(TrafficView::total_packets)
            .fold(0, u64::saturating_add)
    }

    fn total_octets(&self) -> u64 {
        self.shards
            .iter()
            .map(TrafficView::total_octets)
            .fold(0, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::{Ipv4, Prefix, PrefixTrie, RibIndex, SimTime};

    fn flow(src: u32, dst: u32, proto: u8, packets: u64, size: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src: Ipv4(src),
            dst: Ipv4(dst),
            src_port: 1000,
            dst_port: 23,
            protocol: proto,
            tcp_flags: if proto == 6 { 0x02 } else { 0 },
            packets,
            octets: packets * size,
        }
    }

    fn sample_records() -> Vec<FlowRecord> {
        // Spread blocks over many shard residues, mixed protocols/sizes.
        (0u32..500)
            .map(|i| {
                flow(
                    0x0900_0000 + (i % 37) * 256 + (i % 11),
                    0x0a00_0000 + (i % 53) * 256 + (i % 7),
                    if i % 3 == 0 { 6 } else { 17 },
                    1 + u64::from(i % 5),
                    40 + u64::from(i % 4) * 500,
                )
            })
            .collect()
    }

    /// A slot index over the sample traffic's source space and *part* of
    /// its destination space, so columnar tests exercise both slot rows
    /// and the slotless overflow path.
    fn sample_layout() -> StatsLayout {
        let trie: PrefixTrie<()> = ["9.0.0.0/16", "10.0.0.0/19"]
            .iter()
            .map(|p| (p.parse::<Prefix>().unwrap(), ()))
            .collect();
        StatsLayout::Columnar(Arc::new(Slot24Index::build(&RibIndex::build(&trie))))
    }

    fn assert_equivalent(sharded: &ShardedTrafficStats, flat: &TrafficStats) {
        assert_eq!(TrafficView::total_flows(sharded), flat.total_flows);
        assert_eq!(TrafficView::total_packets(sharded), flat.total_packets);
        assert_eq!(TrafficView::total_octets(sharded), flat.total_octets);
        assert_eq!(
            TrafficView::dst_block_count(sharded),
            flat.dst_block_count()
        );
        assert_eq!(
            TrafficView::src_block_count(sharded),
            flat.src_block_count()
        );
        for (block, d) in flat.iter_dst() {
            let sd = TrafficView::dst(sharded, block).expect("dst block present");
            assert_eq!(sd.tcp_packets, d.tcp_packets);
            assert_eq!(sd.tcp_octets, d.tcp_octets);
            assert_eq!(sd.received, d.received);
            assert_eq!(sd.received_tcp, d.received_tcp);
            assert_eq!(sd.received_big_tcp, d.received_big_tcp);
            assert_eq!(sd.tcp_size_histogram(), d.tcp_size_histogram());
        }
        for (block, s) in flat.iter_src() {
            let ss = TrafficView::src(sharded, block).expect("src block present");
            assert_eq!(ss.packets, s.packets);
            assert_eq!(ss.originating, s.originating);
        }
    }

    #[test]
    fn serial_sharded_ingest_matches_flat() {
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        for shards in [1, 3, 16] {
            let sharded = ShardedTrafficStats::from_records(shards, &records);
            assert_equivalent(&sharded, &flat);
        }
    }

    #[test]
    fn columnar_layout_matches_flat_for_all_shard_counts() {
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        for shards in [1, 3, 16, 64] {
            let mut sharded = ShardedTrafficStats::with_layout(
                shards,
                crate::stats::DEFAULT_SIZE_THRESHOLD,
                sample_layout(),
            );
            for r in &records {
                sharded.ingest(r);
            }
            assert_equivalent(&sharded, &flat);
        }
    }

    #[test]
    fn shard_loads_sum_to_block_count_and_balance() {
        let records = sample_records();
        let sharded = ShardedTrafficStats::from_records(8, &records);
        let loads = sharded.shard_loads();
        assert_eq!(loads.len(), 8);
        assert_eq!(
            loads.iter().sum::<usize>(),
            TrafficView::dst_block_count(&sharded),
            "every destination block is counted in exactly one shard"
        );
        assert!(
            loads.iter().all(|&l| l > 0),
            "sample blocks cover all residues: {loads:?}"
        );
    }

    #[test]
    fn sweeps_route_like_flat_ingest() {
        let records = sample_records();
        let mut flat = TrafficStats::new();
        let mut sharded = ShardedTrafficStats::new(5);
        let mut columnar = ShardedTrafficStats::with_layout(
            5,
            crate::stats::DEFAULT_SIZE_THRESHOLD,
            sample_layout(),
        );
        for (i, r) in records.iter().enumerate() {
            if i % 4 == 0 {
                flat.ingest_sweep(r, i as u64);
                sharded.ingest_sweep(r, i as u64);
                columnar.ingest_sweep(r, i as u64);
            } else {
                flat.ingest(r);
                sharded.ingest(r);
                columnar.ingest(r);
            }
        }
        assert_equivalent(&sharded, &flat);
        assert_equivalent(&columnar, &flat);
    }

    #[test]
    fn shard_by_shard_folds_match_routed_ingest_under_both_layouts() {
        // A caller that folds each shard apart (the stream's ingest
        // workers): take the shards out, route each record half with
        // `StatsLayout::shard_of`, fold it into that shard alone, and
        // put the shards back.
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        let threshold = crate::stats::DEFAULT_SIZE_THRESHOLD;
        for layout in [StatsLayout::Map, sample_layout()] {
            for num_shards in [1, 3, 16] {
                let empty = ShardedTrafficStats::with_layout(num_shards, threshold, layout.clone());
                let mut shards = empty.into_shards();
                let shard_of = |ip| layout.shard_of(num_shards, Block24::containing(ip));
                for r in &records {
                    shards[shard_of(r.dst)].ingest_dst_half(r, None);
                    shards[shard_of(r.src)].ingest_src_half(r);
                }
                let folded = ShardedTrafficStats::from_shards(layout.clone(), shards);
                let mut routed =
                    ShardedTrafficStats::with_layout(num_shards, threshold, layout.clone());
                for r in &records {
                    routed.ingest(r);
                }
                assert_equivalent(&folded, &flat);
                assert_equivalent(&routed, &flat);
                assert_eq!(folded.shard_loads(), routed.shard_loads());
            }
        }
    }

    #[test]
    fn a_huge_packet_count_saturates_instead_of_overflowing() {
        // An exporter may claim any 64-bit count. Two such records for
        // one /24 pin every counter they reach at `u64::MAX`, in the
        // fold and again in a merge, under both backends and any shard
        // count: saturation, unlike a wrap or a debug-build panic,
        // leaves serial and sharded folds equal.
        let huge = 1u64 << 63;
        let records: Vec<FlowRecord> = [6, 6, 17, 17, 1]
            .iter()
            .map(|&proto| FlowRecord {
                packets: huge,
                octets: huge,
                ..flow(0x0900_0001, 0x0a00_0005, proto, 1, 40)
            })
            .collect();
        let flat = TrafficStats::from_records(&records);
        let dst = flat.dst(Block24::containing(Ipv4(0x0a00_0005))).unwrap();
        let counts = [
            dst.tcp_packets,
            dst.tcp_octets,
            dst.udp_packets,
            dst.total_packets(),
            flat.src(Block24::containing(Ipv4(0x0900_0001)))
                .unwrap()
                .packets,
            flat.total_packets,
            flat.total_octets,
        ];
        assert_eq!(counts, [u64::MAX; 7]);
        assert_eq!(dst.icmp_packets, huge, "one record: exact");
        assert_eq!(
            dst.tcp_size_histogram().iter().collect::<Vec<_>>(),
            [(1, u64::MAX)]
        );
        assert_eq!(dst.as_ref().median_tcp_size(), Some(1));
        let mut doubled = flat.clone();
        doubled.merge(&flat);
        assert_eq!(
            doubled
                .dst(Block24::containing(Ipv4(0x0a00_0005)))
                .unwrap()
                .icmp_packets,
            u64::MAX
        );
        let threshold = crate::stats::DEFAULT_SIZE_THRESHOLD;
        for layout in [StatsLayout::Map, sample_layout()] {
            for shards in [1, 3, 16] {
                let mut sharded =
                    ShardedTrafficStats::with_layout(shards, threshold, layout.clone());
                for r in &records {
                    sharded.ingest(r);
                }
                assert_equivalent(&sharded, &flat);
                let mut twice = sharded.clone();
                twice.merge(&sharded);
                assert_equivalent(&twice, &doubled);
                assert_equivalent(&twice, &twice.clone().into_unsharded());
            }
        }
    }

    #[test]
    fn into_unsharded_roundtrips() {
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        let back = ShardedTrafficStats::from_records(7, &records).into_unsharded();
        assert_eq!(back.total_flows, flat.total_flows);
        assert_eq!(back.dst_block_count(), flat.dst_block_count());
        for (block, d) in flat.iter_dst() {
            assert_eq!(back.dst(block).unwrap().received, d.received);
        }
    }

    #[test]
    fn columnar_into_unsharded_roundtrips() {
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        let mut sharded = ShardedTrafficStats::with_layout(
            7,
            crate::stats::DEFAULT_SIZE_THRESHOLD,
            sample_layout(),
        );
        for r in &records {
            sharded.ingest(r);
        }
        let back = sharded.into_unsharded();
        assert_eq!(back.total_flows, flat.total_flows);
        assert_eq!(back.dst_block_count(), flat.dst_block_count());
        for (block, d) in flat.iter_dst() {
            assert_eq!(back.dst(block).unwrap().received, d.received);
            assert_eq!(
                back.dst(block).unwrap().tcp_size_histogram(),
                d.tcp_size_histogram()
            );
        }
    }

    #[test]
    fn merge_is_shard_wise() {
        let records = sample_records();
        let (a_recs, b_recs) = records.split_at(200);
        let mut a = ShardedTrafficStats::from_records(4, a_recs);
        let b = ShardedTrafficStats::from_records(4, b_recs);
        a.merge(&b);
        assert_equivalent(&a, &TrafficStats::from_records(&records));
    }

    #[test]
    fn columnar_merge_is_shard_wise() {
        let records = sample_records();
        let (a_recs, b_recs) = records.split_at(200);
        let threshold = crate::stats::DEFAULT_SIZE_THRESHOLD;
        let mut a = ShardedTrafficStats::with_layout(4, threshold, sample_layout());
        let mut b = ShardedTrafficStats::with_layout(4, threshold, sample_layout());
        for r in a_recs {
            a.ingest(r);
        }
        for r in b_recs {
            b.ingest(r);
        }
        a.merge(&b);
        assert_equivalent(&a, &TrafficStats::from_records(&records));
    }

    #[test]
    #[should_panic(expected = "different shard counts")]
    fn merge_rejects_mismatched_shard_counts() {
        let mut a = ShardedTrafficStats::new(4);
        a.merge(&ShardedTrafficStats::new(8));
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = ShardedTrafficStats::new(4);
        let b = ShardedTrafficStats::with_layout(
            4,
            crate::stats::DEFAULT_SIZE_THRESHOLD,
            sample_layout(),
        );
        a.merge(&b);
    }

    #[test]
    fn from_unsharded_inverts_into_unsharded_under_both_layouts() {
        let records = sample_records();
        let flat = TrafficStats::from_records(&records);
        for layout in [StatsLayout::Map, sample_layout()] {
            for shards in [1, 3, 16] {
                let sharded = ShardedTrafficStats::from_unsharded(&flat, shards, layout.clone());
                assert_equivalent(&sharded, &flat);
                // It merges with stats ingested record by record, shard
                // for shard: the restored state can keep accumulating.
                let threshold = crate::stats::DEFAULT_SIZE_THRESHOLD;
                let mut ingested =
                    ShardedTrafficStats::with_layout(shards, threshold, layout.clone());
                for r in &records {
                    ingested.ingest(r);
                }
                let mut twice = sharded.clone();
                twice.merge(&ingested);
                let mut doubled = flat.clone();
                doubled.merge(&flat);
                assert_equivalent(&twice, &doubled);
            }
        }
    }
}
