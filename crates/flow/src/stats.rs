//! Per-/24 traffic accumulators — the aggregates the inference pipeline
//! consumes.
//!
//! For every destination /24 the pipeline needs: protocol packet counts,
//! the TCP packet-size distribution (for the average- and median-size
//! classifiers of Table 3), and per-host receive information (for the
//! dark/unclean/gray classification of step 7, which is defined per IP).
//! For every source /24 it needs originated-packet counts, both per block
//! (step 3, "source address unseen") and per host (graynet detection and
//! the spoofing-tolerance percentile of Section 7.2).
//!
//! Memory matters: a paper-scale day touches millions of /24s across 14
//! vantage points, so per-host state is kept as fixed 256-bit sets
//! ([`HostSet`], 32 bytes) rather than per-host counters. The price is
//! that the "host saw a large TCP packet" bit is thresholded at ingest
//! time ([`TrafficStats::with_size_threshold`]); the block-level size
//! *histogram* is exact, so the Table 3 threshold sweep is unaffected.
//!
//! All counts are *sampled* counts; the pipeline scales by the vantage
//! point's sampling rate where absolute volumes matter (the 1.7 M
//! packets/day filter).

use crate::histogram::SizeHistogram;
use crate::record::FlowRecord;
use mt_types::{Block24, FxHashMap};
use mt_wire::IpProtocol;

/// Read access to per-/24 traffic aggregates, independent of how they are
/// stored.
///
/// The flat [`TrafficStats`], the columnar
/// [`ColumnarStats`](crate::columnar::ColumnarStats), and the sharded
/// [`ShardedTrafficStats`](crate::sharded::ShardedTrafficStats) implement
/// this, so consumers (the inference pipeline, spoofing-tolerance
/// estimation, baselines) can run against any representation without
/// forcing a merge first.
///
/// Accessors hand out by-value view structs ([`DstRef`], [`SrcRef`])
/// rather than `&DstBlockStats`: a struct-of-arrays backend has no
/// materialized `DstBlockStats` to lend out, and the views are cheap
/// `Copy` aggregates (counters and 32-byte host sets by value, the size
/// histogram by reference).
pub trait TrafficView {
    /// Stats for traffic destined to `block`.
    fn dst(&self, block: Block24) -> Option<DstRef<'_>>;

    /// Stats for traffic originated by `block`.
    fn src(&self, block: Block24) -> Option<SrcRef>;

    /// Iterates over all destination blocks with sampled traffic, in
    /// storage order (unordered).
    fn iter_dst(&self) -> impl Iterator<Item = (Block24, DstRef<'_>)>;

    /// Iterates over all source blocks with sampled traffic, in storage
    /// order (unordered).
    fn iter_src(&self) -> impl Iterator<Item = (Block24, SrcRef)>;

    /// Number of distinct destination /24s seen.
    fn dst_block_count(&self) -> usize;

    /// Number of distinct source /24s seen.
    fn src_block_count(&self) -> usize;

    /// The per-host "large packet" size threshold the stats were built
    /// with.
    fn size_threshold(&self) -> u16;

    /// Number of flow records ingested.
    fn total_flows(&self) -> u64;

    /// Sampled packets across all records.
    fn total_packets(&self) -> u64;

    /// Sampled octets across all records.
    fn total_octets(&self) -> u64;
}

/// The default per-packet size (bytes) above which a TCP packet marks its
/// destination host as having seen "large" traffic. Deliberately looser
/// than the 44-byte *block-average* threshold: SYNs with options (48–60
/// bytes) are IBR-compatible and must not disqualify a host, while
/// payload-carrying packets (≥ ~100 bytes) indicate a conversation.
pub const DEFAULT_SIZE_THRESHOLD: u16 = 60;

/// A set of hosts (last-octet values) within one /24, as a 256-bit map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostSet([u64; 4]);

impl HostSet {
    /// The empty set.
    pub const EMPTY: HostSet = HostSet([0; 4]);

    /// Inserts a host.
    pub fn insert(&mut self, host: u8) {
        self.0[(host / 64) as usize] |= 1 << (host % 64);
    }

    /// Membership test.
    pub fn contains(&self, host: u8) -> bool {
        self.0[(host / 64) as usize] & (1 << (host % 64)) != 0
    }

    /// Number of hosts in the set.
    pub fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Hosts present in `self` but not in `other`.
    pub fn difference(&self, other: &HostSet) -> HostSet {
        HostSet([
            self.0[0] & !other.0[0],
            self.0[1] & !other.0[1],
            self.0[2] & !other.0[2],
            self.0[3] & !other.0[3],
        ])
    }

    /// Set union.
    pub fn union(&self, other: &HostSet) -> HostSet {
        HostSet([
            self.0[0] | other.0[0],
            self.0[1] | other.0[1],
            self.0[2] | other.0[2],
            self.0[3] | other.0[3],
        ])
    }

    /// Set intersection.
    pub fn intersection(&self, other: &HostSet) -> HostSet {
        HostSet([
            self.0[0] & other.0[0],
            self.0[1] & other.0[1],
            self.0[2] & other.0[2],
            self.0[3] & other.0[3],
        ])
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &HostSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    /// Iterates over the hosts in ascending order.
    ///
    /// Walks the four 64-bit words with `trailing_zeros`, visiting only
    /// set bits instead of probing all 256 positions — sparse sets (the
    /// common case: a handful of active hosts per /24) iterate in a few
    /// steps.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&bits| {
                let rest = bits & (bits - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| (w as u32 * 64 + bits.trailing_zeros()) as u8)
        })
    }

    /// Rebuilds a set from its raw 256-bit representation — how the
    /// columnar store and the results-store codec lay the set out as
    /// four flat u64 column words.
    pub fn from_words(words: [u64; 4]) -> HostSet {
        HostSet(words)
    }

    /// The raw 256-bit representation: four u64 column words, the
    /// interchange form of [`from_words`](Self::from_words).
    pub fn to_words(self) -> [u64; 4] {
        self.0
    }
}

/// A by-value read view of one destination /24's aggregates.
///
/// What [`TrafficView`] hands out instead of `&DstBlockStats`: counters
/// and host sets are copied (40 + 96 bytes), the TCP size histogram is
/// borrowed from the backing store. Map-backed stats produce it via
/// [`DstBlockStats::as_ref`]; the columnar store assembles it straight
/// from its columns.
#[derive(Debug, Clone, Copy)]
pub struct DstRef<'a> {
    /// Sampled TCP packets.
    pub tcp_packets: u64,
    /// Sampled TCP octets.
    pub tcp_octets: u64,
    /// Sampled UDP packets.
    pub udp_packets: u64,
    /// Sampled ICMP packets.
    pub icmp_packets: u64,
    /// Sampled packets of other protocols.
    pub other_packets: u64,
    /// Hosts that received any sampled packet.
    pub received: HostSet,
    /// Hosts that received sampled TCP.
    pub received_tcp: HostSet,
    /// Hosts that received a sampled TCP packet larger than the ingest
    /// size threshold.
    pub received_big_tcp: HostSet,
    /// TCP packet-size histogram, sorted by size.
    pub(crate) tcp_sizes: &'a SizeHistogram,
}

impl<'a> DstRef<'a> {
    /// Sampled packets across all protocols.
    pub fn total_packets(&self) -> u64 {
        [self.udp_packets, self.icmp_packets, self.other_packets]
            .into_iter()
            .fold(self.tcp_packets, u64::saturating_add)
    }

    /// Average TCP packet size destined to the block.
    pub fn avg_tcp_size(&self) -> Option<f64> {
        (self.tcp_packets > 0).then(|| self.tcp_octets as f64 / self.tcp_packets as f64)
    }

    /// Weighted median TCP packet size destined to the block (lower
    /// median for even counts).
    pub fn median_tcp_size(&self) -> Option<u16> {
        if self.tcp_packets == 0 {
            return None;
        }
        let half = self.tcp_packets.div_ceil(2);
        let mut seen = 0u64;
        for (size, count) in self.tcp_sizes.iter() {
            seen = seen.saturating_add(count);
            if seen >= half {
                return Some(size);
            }
        }
        // The histogram counts sum to tcp_packets, so the loop always
        // crosses `half`; the largest recorded size is the correct
        // answer if that invariant ever slipped, and it keeps this
        // accessor total instead of a panic path.
        self.tcp_sizes.iter().last().map(|(size, _)| size)
    }

    /// The TCP size histogram, sorted by size.
    pub fn tcp_size_histogram(&self) -> &'a SizeHistogram {
        self.tcp_sizes
    }
}

/// A by-value read view of one source /24's aggregates.
///
/// Fully owned (`Copy`, no borrow): a packet counter plus the 32-byte
/// originating-host set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRef {
    /// Sampled packets originated by the block.
    pub packets: u64,
    /// Hosts seen originating traffic.
    pub originating: HostSet,
}

impl SrcRef {
    /// Number of distinct hosts seen originating traffic.
    pub fn active_hosts(&self) -> u32 {
        self.originating.len()
    }
}

/// Receive-side statistics for one destination /24.
///
/// The one per-/24 destination row from fold to file: the map backend
/// keeps one per touched block, and the results store persists and
/// merges these same rows (`crate::export::ColumnSlices`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DstBlockStats {
    /// Sampled TCP packets.
    pub tcp_packets: u64,
    /// Sampled TCP octets.
    pub tcp_octets: u64,
    /// Sampled UDP packets.
    pub udp_packets: u64,
    /// Sampled ICMP packets.
    pub icmp_packets: u64,
    /// Sampled packets of other protocols.
    pub other_packets: u64,
    /// Hosts that received any sampled packet.
    pub received: HostSet,
    /// Hosts that received sampled TCP.
    pub received_tcp: HostSet,
    /// Hosts that received a sampled TCP packet larger than the ingest
    /// size threshold.
    pub received_big_tcp: HostSet,
    /// TCP packet-size histogram: `(size, sampled packets)`, strictly
    /// ascending by size. IBR has one to four distinct sizes per /24,
    /// which the histogram holds in the row itself.
    pub tcp_sizes: SizeHistogram,
}

impl DstBlockStats {
    /// The by-value [`TrafficView`] view of these aggregates.
    pub fn as_ref(&self) -> DstRef<'_> {
        DstRef {
            tcp_packets: self.tcp_packets,
            tcp_octets: self.tcp_octets,
            udp_packets: self.udp_packets,
            icmp_packets: self.icmp_packets,
            other_packets: self.other_packets,
            received: self.received,
            received_tcp: self.received_tcp,
            received_big_tcp: self.received_big_tcp,
            tcp_sizes: &self.tcp_sizes,
        }
    }

    /// Sampled packets across all protocols.
    pub fn total_packets(&self) -> u64 {
        self.as_ref().total_packets()
    }

    /// Average TCP packet size destined to the block.
    pub fn avg_tcp_size(&self) -> Option<f64> {
        self.as_ref().avg_tcp_size()
    }

    /// Weighted median TCP packet size destined to the block (lower
    /// median for even counts).
    pub fn median_tcp_size(&self) -> Option<u16> {
        self.as_ref().median_tcp_size()
    }

    /// The TCP size histogram, sorted by size.
    pub fn tcp_size_histogram(&self) -> &SizeHistogram {
        &self.tcp_sizes
    }

    /// Folds one record whose packets reached `hosts` of this block
    /// (its destination host, or a sweep's draws): every host joins
    /// `received`, TCP hosts `received_tcp` (and `received_big_tcp`
    /// above the threshold), and the protocol counters move once.
    fn fold(&mut self, hosts: impl Iterator<Item = u8>, r: &FlowRecord, big_threshold: u16) {
        let (tcp, big) = tcp_marks(r, big_threshold);
        for host in hosts {
            self.received.insert(host);
            if tcp {
                self.received_tcp.insert(host);
            }
            if big {
                self.received_big_tcp.insert(host);
            }
        }
        add_protocol_counts(
            r,
            [
                &mut self.tcp_packets,
                &mut self.tcp_octets,
                &mut self.udp_packets,
                &mut self.icmp_packets,
                &mut self.other_packets,
            ],
            || &mut self.tcp_sizes,
        );
    }

    pub(crate) fn merge(&mut self, other: &DstBlockStats) {
        self.merge_ref(other.as_ref());
    }

    /// Merges a by-value view into this accumulator — the bridge the
    /// columnar ↔ map conversions use in both directions, and the copy
    /// `ColumnSlices::export` makes of each row.
    pub(crate) fn merge_ref(&mut self, other: DstRef<'_>) {
        self.tcp_packets = self.tcp_packets.saturating_add(other.tcp_packets);
        self.tcp_octets = self.tcp_octets.saturating_add(other.tcp_octets);
        self.udp_packets = self.udp_packets.saturating_add(other.udp_packets);
        self.icmp_packets = self.icmp_packets.saturating_add(other.icmp_packets);
        self.other_packets = self.other_packets.saturating_add(other.other_packets);
        self.received.union_with(&other.received);
        self.received_tcp.union_with(&other.received_tcp);
        self.received_big_tcp.union_with(&other.received_big_tcp);
        self.tcp_sizes.merge(other.tcp_sizes);
    }
}

/// The hosts a sweep record reaches: its `packets` spread one per host
/// over pseudo-random hosts of the block (a scanner probing the whole
/// /24). Counters are batched; host draws are capped at 256.
pub(crate) fn sweep_hosts(host_seed: u64, packets: u64) -> impl Iterator<Item = u8> {
    (0..packets.min(256)).map(move |i| (mt_types::mix::mix3(host_seed, i, 0x5eed) & 0xff) as u8)
}

/// Whether a record marks its hosts as having received TCP, and big
/// TCP: a mean packet size above `big_threshold`.
pub(crate) fn tcp_marks(r: &FlowRecord, big_threshold: u16) -> (bool, bool) {
    let tcp = r.is_tcp();
    (tcp, tcp && mean_size(r.packets, r.octets) > big_threshold)
}

/// A record's mean packet size, its TCP histogram bin. Averages beyond
/// u16 range (jumbo frames) saturate into the top bin instead of
/// wrapping.
fn mean_size(packets: u64, octets: u64) -> u16 {
    u16::try_from(octets / packets).unwrap_or(u16::MAX)
}

/// Adds one record to its destination's protocol counters, given in
/// [`DstBlockStats`] field order (`tcp_packets`, `tcp_octets`,
/// `udp_packets`, `icmp_packets`, `other_packets`): TCP adds packets,
/// octets and a size-histogram bin, every other protocol its packets.
/// Shared by single-host and sweep folds, in the map backend and its
/// columnar mirror; the histogram is only fetched for TCP.
pub(crate) fn add_protocol_counts<'a>(
    r: &FlowRecord,
    [tcp_packets, tcp_octets, udp_packets, icmp_packets, other_packets]: [&mut u64; 5],
    tcp_sizes: impl FnOnce() -> &'a mut SizeHistogram,
) {
    match IpProtocol::from_u8(r.protocol) {
        Some(IpProtocol::Tcp) => {
            *tcp_packets = tcp_packets.saturating_add(r.packets);
            *tcp_octets = tcp_octets.saturating_add(r.octets);
            tcp_sizes().add(mean_size(r.packets, r.octets), r.packets);
        }
        Some(IpProtocol::Udp) => *udp_packets = udp_packets.saturating_add(r.packets),
        Some(IpProtocol::Icmp) => *icmp_packets = icmp_packets.saturating_add(r.packets),
        None => *other_packets = other_packets.saturating_add(r.packets),
    }
}

/// Send-side statistics for one source /24: the one per-/24 source row
/// from fold to file, as [`DstBlockStats`] is for destinations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SrcBlockStats {
    /// Sampled packets originated by the block.
    pub packets: u64,
    /// Hosts seen originating traffic.
    pub originating: HostSet,
}

impl SrcBlockStats {
    /// The by-value [`TrafficView`] view of these aggregates.
    pub fn as_ref(&self) -> SrcRef {
        SrcRef {
            packets: self.packets,
            originating: self.originating,
        }
    }

    /// Number of distinct hosts seen originating traffic.
    pub fn active_hosts(&self) -> u32 {
        self.originating.len()
    }

    pub(crate) fn ingest(&mut self, host: u8, packets: u64) {
        self.packets = self.packets.saturating_add(packets);
        self.originating.insert(host);
    }

    pub(crate) fn merge(&mut self, other: &SrcBlockStats) {
        self.merge_ref(other.as_ref());
    }

    /// Merges a by-value view into this accumulator.
    pub(crate) fn merge_ref(&mut self, other: SrcRef) {
        self.packets = self.packets.saturating_add(other.packets);
        self.originating.union_with(&other.originating);
    }
}

/// Aggregated per-/24 view of a set of sampled flow records.
#[derive(Debug, Clone)]
pub struct TrafficStats {
    // /24 indices are well-mixed u32s from our own pipeline, so the
    // hot maps use the fast deterministic hasher instead of SipHash.
    // check: allow(columnar_policy, "the map backend is the proptest oracle the columnar store is verified against")
    per_dst: FxHashMap<u32, DstBlockStats>,
    // check: allow(columnar_policy, "the map backend is the proptest oracle the columnar store is verified against")
    per_src: FxHashMap<u32, SrcBlockStats>,
    size_threshold: u16,
    /// Number of flow records ingested.
    pub total_flows: u64,
    /// Sampled packets across all records.
    pub total_packets: u64,
    /// Sampled octets across all records.
    pub total_octets: u64,
}

impl Default for TrafficStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TrafficStats {
    /// Creates an empty accumulator with the default 44-byte "large
    /// packet" host threshold.
    pub fn new() -> Self {
        Self::with_size_threshold(DEFAULT_SIZE_THRESHOLD)
    }

    /// Creates an empty accumulator with a custom per-host size
    /// threshold (must match the pipeline's classification threshold).
    pub fn with_size_threshold(size_threshold: u16) -> Self {
        TrafficStats {
            per_dst: FxHashMap::default(),
            per_src: FxHashMap::default(),
            size_threshold,
            total_flows: 0,
            total_packets: 0,
            total_octets: 0,
        }
    }

    /// The per-host size threshold this accumulator was built with.
    pub fn size_threshold(&self) -> u16 {
        self.size_threshold
    }

    /// Builds stats from a slice of records.
    pub fn from_records(records: &[FlowRecord]) -> Self {
        let mut s = Self::new();
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

    /// Ingests a host-sweep record: `r.packets` packets of identical size
    /// spread one-per-host over pseudo-random hosts of the destination
    /// /24 (derived from `host_seed`). Used for scan traffic, where the
    /// per-host fan-out matters for classification but materializing one
    /// record per host would dominate runtime.
    pub fn ingest_sweep(&mut self, r: &FlowRecord, host_seed: u64) {
        self.ingest_dst_half(r, Some(host_seed));
        self.ingest_src_half(r);
    }

    /// The destination-side half of an ingest: record totals plus the
    /// per-dst-/24 update (a sweep when `sweep_seed` is set). Split from
    /// [`ingest`](Self::ingest) so a sharded accumulator can route the two
    /// halves of one record to the shards owning its dst and src blocks.
    pub(crate) fn ingest_dst_half(&mut self, r: &FlowRecord, sweep_seed: Option<u64>) {
        debug_assert!(r.packets > 0, "flow records carry at least one packet");
        self.add_totals(1, r.packets, r.octets);
        let dst = self.per_dst.entry(r.dst.block24_index()).or_default();
        match sweep_seed {
            None => dst.fold(
                std::iter::once(r.dst.host_in_block24()),
                r,
                self.size_threshold,
            ),
            Some(seed) => dst.fold(sweep_hosts(seed, r.packets), r, self.size_threshold),
        }
    }

    /// The source-side half of an ingest (no totals; those ride with the
    /// destination half so shard sums reproduce serial totals exactly).
    pub(crate) fn ingest_src_half(&mut self, r: &FlowRecord) {
        self.per_src
            .entry(r.src.block24_index())
            .or_default()
            .ingest(r.src.host_in_block24(), r.packets);
    }

    /// Adds record totals. Like every counter in this crate they
    /// saturate: an exporter's count near 2^64 pins a total at
    /// `u64::MAX` instead of wrapping it, and a saturating sum of
    /// unsigned counts is independent of order, so sharded folds still
    /// equal serial ones.
    pub(crate) fn add_totals(&mut self, flows: u64, packets: u64, octets: u64) {
        self.total_flows = self.total_flows.saturating_add(flows);
        self.total_packets = self.total_packets.saturating_add(packets);
        self.total_octets = self.total_octets.saturating_add(octets);
    }

    /// Stats for traffic destined to `block`.
    pub fn dst(&self, block: Block24) -> Option<&DstBlockStats> {
        self.per_dst.get(&block.0)
    }

    /// Stats for traffic originated by `block`.
    pub fn src(&self, block: Block24) -> Option<&SrcBlockStats> {
        self.per_src.get(&block.0)
    }

    /// Iterates over all destination blocks with sampled traffic.
    pub fn iter_dst(&self) -> impl Iterator<Item = (Block24, &DstBlockStats)> {
        self.per_dst.iter().map(|(&b, s)| (Block24(b), s))
    }

    /// Iterates over all source blocks with sampled traffic.
    pub fn iter_src(&self) -> impl Iterator<Item = (Block24, &SrcBlockStats)> {
        self.per_src.iter().map(|(&b, s)| (Block24(b), s))
    }

    /// Number of distinct destination /24s seen.
    pub fn dst_block_count(&self) -> usize {
        self.per_dst.len()
    }

    /// Number of distinct source /24s seen.
    pub fn src_block_count(&self) -> usize {
        self.per_src.len()
    }

    /// Merges another accumulator into this one (multi-day windows,
    /// multi-vantage-point unions, shard-wise window merges). Both sides
    /// must share the same size threshold.
    pub fn merge(&mut self, other: &TrafficStats) {
        assert_eq!(
            self.size_threshold, other.size_threshold,
            "merging stats with different host-size thresholds"
        );
        self.add_totals(other.total_flows, other.total_packets, other.total_octets);
        for (&b, s) in &other.per_dst {
            self.per_dst.entry(b).or_default().merge(s);
        }
        for (&b, s) in &other.per_src {
            self.per_src.entry(b).or_default().merge(s);
        }
    }

    /// Moves all blocks of `other` into `self`, assuming the key spaces
    /// are disjoint (shard reassembly). Equivalent to
    /// [`merge`](Self::merge) but consumes `other` and reuses its
    /// allocations instead of cloning every block.
    pub(crate) fn absorb_disjoint(&mut self, other: TrafficStats) {
        assert_eq!(
            self.size_threshold, other.size_threshold,
            "merging stats with different host-size thresholds"
        );
        self.add_totals(other.total_flows, other.total_packets, other.total_octets);
        if self.per_dst.is_empty() && self.per_src.is_empty() {
            self.per_dst = other.per_dst;
            self.per_src = other.per_src;
            return;
        }
        for (b, s) in other.per_dst {
            debug_assert!(!self.per_dst.contains_key(&b), "shard key spaces overlap");
            self.per_dst.insert(b, s);
        }
        for (b, s) in other.per_src {
            debug_assert!(!self.per_src.contains_key(&b), "shard key spaces overlap");
            self.per_src.insert(b, s);
        }
    }

    /// Materializes any [`TrafficView`] into a flat map-backed
    /// accumulator — the escape hatch the columnar store uses when a
    /// call site insists on the unsharded hashmap representation.
    pub fn from_view<V: TrafficView>(v: &V) -> TrafficStats {
        let mut out = TrafficStats::with_size_threshold(v.size_threshold());
        out.total_flows = v.total_flows();
        out.total_packets = v.total_packets();
        out.total_octets = v.total_octets();
        for (b, d) in v.iter_dst() {
            out.per_dst.entry(b.0).or_default().merge_ref(d);
        }
        for (b, s) in v.iter_src() {
            out.per_src.entry(b.0).or_default().merge_ref(s);
        }
        out
    }

    /// Merges one destination row view into the accumulator — the
    /// import half of the column-slice interchange (`crate::export`)
    /// and of `ShardedTrafficStats::from_unsharded`.
    pub(crate) fn merge_dst_view(&mut self, block: Block24, d: DstRef<'_>) {
        self.per_dst.entry(block.0).or_default().merge_ref(d);
    }

    /// Merges one source row view into the accumulator — the import
    /// half of the column-slice interchange (`crate::export`) and of
    /// `ShardedTrafficStats::from_unsharded`.
    pub(crate) fn merge_src_view(&mut self, block: Block24, s: SrcRef) {
        self.per_src.entry(block.0).or_default().merge_ref(s);
    }
}

impl TrafficView for TrafficStats {
    fn dst(&self, block: Block24) -> Option<DstRef<'_>> {
        TrafficStats::dst(self, block).map(DstBlockStats::as_ref)
    }

    fn src(&self, block: Block24) -> Option<SrcRef> {
        TrafficStats::src(self, block).map(SrcBlockStats::as_ref)
    }

    fn iter_dst(&self) -> impl Iterator<Item = (Block24, DstRef<'_>)> {
        TrafficStats::iter_dst(self).map(|(b, d)| (b, d.as_ref()))
    }

    fn iter_src(&self) -> impl Iterator<Item = (Block24, SrcRef)> {
        TrafficStats::iter_src(self).map(|(b, s)| (b, s.as_ref()))
    }

    fn dst_block_count(&self) -> usize {
        TrafficStats::dst_block_count(self)
    }

    fn src_block_count(&self) -> usize {
        TrafficStats::src_block_count(self)
    }

    fn size_threshold(&self) -> u16 {
        TrafficStats::size_threshold(self)
    }

    fn total_flows(&self) -> u64 {
        self.total_flows
    }

    fn total_packets(&self) -> u64 {
        self.total_packets
    }

    fn total_octets(&self) -> u64 {
        self.total_octets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::{Ipv4, SimTime};

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

    const SRC: Ipv4 = Ipv4::new(9, 0, 0, 1);
    const DST_A: Ipv4 = Ipv4::new(10, 0, 0, 5);
    const DST_B: Ipv4 = Ipv4::new(10, 0, 0, 9);

    #[test]
    fn hostset_basics() {
        let mut s = HostSet::default();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert_eq!(s.len(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert_eq!(s.iter().collect::<Vec<u8>>(), vec![0, 63, 64, 255]);
        let mut t = HostSet::default();
        t.insert(63);
        t.insert(100);
        assert_eq!(s.difference(&t).len(), 3);
        assert_eq!(s.union(&t).len(), 5);
        assert_eq!(s.intersection(&t).len(), 1);
    }

    #[test]
    fn hostset_iter_sparse_dense_and_boundaries() {
        // Sparse: one bit per word, including both word boundaries.
        let mut sparse = HostSet::default();
        for h in [0u8, 63, 64, 127, 128, 191, 192, 255] {
            sparse.insert(h);
        }
        assert_eq!(
            sparse.iter().collect::<Vec<u8>>(),
            vec![0, 63, 64, 127, 128, 191, 192, 255]
        );

        // Dense: every host — iteration must cover the full domain in order.
        let mut dense = HostSet::default();
        for h in 0..=255u8 {
            dense.insert(h);
        }
        let all: Vec<u8> = dense.iter().collect();
        assert_eq!(all.len(), 256);
        assert!(all.iter().copied().eq(0..=255));

        // Empty set yields nothing.
        assert_eq!(HostSet::EMPTY.iter().count(), 0);

        // Cross-check against a membership probe over the whole domain.
        let mut mixed = HostSet::default();
        for h in (0..=255u8).filter(|h| h % 7 == 3) {
            mixed.insert(h);
        }
        let probed: Vec<u8> = (0u16..256)
            .filter_map(|h| mixed.contains(h as u8).then_some(h as u8))
            .collect();
        assert_eq!(mixed.iter().collect::<Vec<u8>>(), probed);
    }

    #[test]
    fn ingest_accumulates_by_protocol() {
        let mut s = TrafficStats::new();
        s.ingest(&flow(SRC, DST_A, 6, 3, 40));
        s.ingest(&flow(SRC, DST_A, 17, 2, 100));
        s.ingest(&flow(SRC, DST_A, 1, 1, 64));
        s.ingest(&flow(SRC, DST_A, 47, 1, 80)); // GRE → other
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert_eq!(d.tcp_packets, 3);
        assert_eq!(d.udp_packets, 2);
        assert_eq!(d.icmp_packets, 1);
        assert_eq!(d.other_packets, 1);
        assert_eq!(d.total_packets(), 7);
        assert_eq!(d.avg_tcp_size(), Some(40.0));
    }

    #[test]
    fn per_host_bitmaps() {
        let mut s = TrafficStats::new();
        s.ingest(&flow(SRC, DST_A, 6, 2, 40)); // small TCP to host 5
        s.ingest(&flow(SRC, DST_B, 6, 4, 1500)); // big TCP to host 9
        s.ingest(&flow(SRC, Ipv4::new(10, 0, 0, 11), 17, 1, 100)); // UDP to host 11
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert_eq!(d.received.len(), 3);
        assert_eq!(d.received_tcp.iter().collect::<Vec<u8>>(), vec![5, 9]);
        assert_eq!(d.received_big_tcp.iter().collect::<Vec<u8>>(), vec![9]);
        assert!(!d.received_big_tcp.contains(5));
    }

    #[test]
    fn size_threshold_boundary_is_exclusive() {
        // A packet of exactly the threshold size is NOT "big".
        let mut s = TrafficStats::with_size_threshold(44);
        s.ingest(&flow(SRC, DST_A, 6, 1, 44));
        s.ingest(&flow(SRC, DST_B, 6, 1, 45));
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert!(!d.received_big_tcp.contains(5));
        assert!(d.received_big_tcp.contains(9));
    }

    #[test]
    fn median_size_weighted() {
        let mut s = TrafficStats::new();
        // 7 packets of 40 bytes, 3 of 1500 → median 40.
        s.ingest(&flow(SRC, DST_A, 6, 7, 40));
        s.ingest(&flow(SRC, DST_A, 6, 3, 1500));
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert_eq!(d.median_tcp_size(), Some(40));
        assert!((d.avg_tcp_size().unwrap() - 478.0).abs() < 1.0);
        assert_eq!(
            d.tcp_size_histogram().iter().collect::<Vec<_>>(),
            [(40, 7), (1500, 3)]
        );
    }

    #[test]
    fn median_of_even_split_takes_lower() {
        let mut s = TrafficStats::new();
        s.ingest(&flow(SRC, DST_A, 6, 5, 40));
        s.ingest(&flow(SRC, DST_A, 6, 5, 1500));
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert_eq!(d.median_tcp_size(), Some(40));
    }

    #[test]
    fn oversized_average_saturates_instead_of_truncating() {
        // 100 000-byte average packets: `as u16` used to wrap this to
        // 34 464, filing jumbo traffic under a bogus mid-range size.
        // It must saturate at u16::MAX and still count as "big" TCP.
        let mut s = TrafficStats::new();
        s.ingest(&flow(SRC, DST_A, 6, 1, 100_000));
        s.ingest_sweep(&flow(SRC, DST_B, 6, 4, 100_000), 0x5eed);
        let d = s.dst(Block24::containing(DST_A)).unwrap();
        assert_eq!(
            d.tcp_size_histogram().iter().collect::<Vec<_>>(),
            [(u16::MAX, 5)]
        );
        assert_eq!(d.median_tcp_size(), Some(u16::MAX));
        assert!(d.received_big_tcp.contains(DST_A.host_in_block24()));
        assert_eq!(d.tcp_octets, 500_000, "octet totals stay exact");
    }

    #[test]
    fn source_side_tracking() {
        let mut s = TrafficStats::new();
        s.ingest(&flow(SRC, DST_A, 6, 3, 40));
        s.ingest(&flow(Ipv4::new(9, 0, 0, 2), DST_A, 6, 5, 40));
        let src = s.src(Block24::containing(SRC)).unwrap();
        assert_eq!(src.packets, 8);
        assert_eq!(src.active_hosts(), 2);
        assert!(src.originating.contains(1));
        assert!(src.originating.contains(2));
        assert!(!src.originating.contains(3));
    }

    #[test]
    fn merge_equals_combined_ingest() {
        let flows_a = [flow(SRC, DST_A, 6, 3, 40), flow(SRC, DST_B, 17, 2, 100)];
        let flows_b = [flow(SRC, DST_A, 6, 4, 48), flow(DST_A, SRC, 6, 1, 1500)];
        let mut merged = TrafficStats::from_records(&flows_a);
        merged.merge(&TrafficStats::from_records(&flows_b));
        let all: Vec<FlowRecord> = flows_a.iter().chain(&flows_b).copied().collect();
        let combined = TrafficStats::from_records(&all);
        assert_eq!(merged.total_flows, combined.total_flows);
        assert_eq!(merged.total_packets, combined.total_packets);
        let b = Block24::containing(DST_A);
        assert_eq!(
            merged.dst(b).unwrap().tcp_packets,
            combined.dst(b).unwrap().tcp_packets
        );
        assert_eq!(
            merged.dst(b).unwrap().median_tcp_size(),
            combined.dst(b).unwrap().median_tcp_size()
        );
        assert_eq!(
            merged.dst(b).unwrap().received,
            combined.dst(b).unwrap().received
        );
        assert_eq!(
            merged.src(b).unwrap().packets,
            combined.src(b).unwrap().packets
        );
    }

    #[test]
    #[should_panic(expected = "different host-size thresholds")]
    fn merge_rejects_mismatched_thresholds() {
        let mut a = TrafficStats::with_size_threshold(40);
        let b = TrafficStats::with_size_threshold(44);
        a.merge(&b);
    }

    #[test]
    fn block_counts() {
        let s = TrafficStats::from_records(&[
            flow(SRC, DST_A, 6, 1, 40),
            flow(SRC, Ipv4::new(11, 0, 0, 1), 6, 1, 40),
        ]);
        assert_eq!(s.dst_block_count(), 2);
        assert_eq!(s.src_block_count(), 1);
    }
}
