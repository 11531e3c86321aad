//! Columnar ⇔ hashmap backend equivalence.
//!
//! The columnar store ([`metatelescope::flow::ColumnarStats`]) must be
//! observationally identical to the map-backed `TrafficStats` oracle
//! through the `TrafficView` trait: same per-block aggregates, same
//! iteration contents, and — the property the pipeline actually relies
//! on — bit-identical verdicts from the seven-step inference, over
//! random announced spaces (with unannounced gaps) and random traffic
//! (including blocks outside every announcement, which the columnar
//! store routes through its overflow map).
//!
//! A final smoke test runs the `full` netmodel profile end-to-end at
//! reduced flow volume: full-IPv4 slot space, both layouts, equal
//! results.

use metatelescope::core::pipeline::PipelineConfig;
use metatelescope::core::PipelineEngine;
use metatelescope::flow::{
    ColumnarStats, FlowRecord, ShardedTrafficStats, StatsLayout, TrafficStats, TrafficView,
};
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::types::mix::mix3;
use metatelescope::types::{
    Asn, Block24, Ipv4, Prefix, PrefixTrie, RibIndex, SimTime, Slot24Index,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random announced space: a set of /20s (16 /24s each) scattered
/// over the low address space, leaving unannounced gaps between them.
/// Returns the routing trie and the compiled slot index.
fn announced_space(slash20s: &[u16]) -> (PrefixTrie<Asn>, Arc<Slot24Index>) {
    let mut trie = PrefixTrie::new();
    let mut ids: Vec<u16> = slash20s.to_vec();
    ids.sort_unstable();
    ids.dedup();
    for (i, &id) in ids.iter().enumerate() {
        // /20 number `id` covers blocks [id*16, id*16+16).
        let base = Ipv4((u32::from(id) * 16) << 8);
        let prefix = Prefix::new(base, 20).expect("aligned /20");
        trie.insert(prefix, Asn(64_512 + i as u32));
    }
    let slots = Arc::new(Slot24Index::build(&RibIndex::build(&trie)));
    (trie, slots)
}

/// One record; `inside` picks the dst from the announced space when
/// possible, otherwise (or when `inside` is false) dst is arbitrary.
#[derive(Debug, Clone)]
struct RecSpec {
    inside: bool,
    dst_pick: u32,
    src: u32,
    dst_host: u8,
    dst_port: u16,
    protocol: u8,
    packets: u64,
    size: u64,
    flags: u8,
}

fn arb_rec() -> impl Strategy<Value = RecSpec> {
    (
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        prop_oneof![Just(1u8), Just(6), Just(6), Just(17), Just(47)],
        1u64..=400,
        20u64..=1_500,
        0u8..=0x3f,
    )
        .prop_map(
            |(inside, dst_pick, src, dst_host, dst_port, protocol, packets, size, flags)| RecSpec {
                inside,
                dst_pick,
                src,
                dst_host,
                dst_port,
                protocol,
                packets,
                size,
                flags,
            },
        )
}

fn materialize(specs: &[RecSpec], slots: &Slot24Index) -> Vec<FlowRecord> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dst = if s.inside && slots.num_slots() > 0 {
                slots
                    .block_of(s.dst_pick % slots.num_slots())
                    .addr(s.dst_host)
            } else {
                Ipv4(s.dst_pick)
            };
            FlowRecord {
                start: SimTime(i as u64),
                src: Ipv4(s.src),
                dst,
                src_port: 40_000,
                dst_port: s.dst_port,
                protocol: s.protocol,
                tcp_flags: s.flags,
                packets: s.packets,
                octets: s.packets * s.size,
            }
        })
        .collect()
}

/// Asserts that two views expose identical observables: totals, block
/// counts, per-block destination and source aggregates (in identical
/// sorted order), and size statistics.
fn assert_views_equal<A: TrafficView, B: TrafficView>(a: &A, b: &B) {
    assert_eq!(a.total_flows(), b.total_flows());
    assert_eq!(a.total_packets(), b.total_packets());
    assert_eq!(a.total_octets(), b.total_octets());
    assert_eq!(a.dst_block_count(), b.dst_block_count());
    assert_eq!(a.src_block_count(), b.src_block_count());
    assert_eq!(a.size_threshold(), b.size_threshold());

    let mut da: Vec<Block24> = a.iter_dst().map(|(blk, _)| blk).collect();
    let mut db: Vec<Block24> = b.iter_dst().map(|(blk, _)| blk).collect();
    da.sort_unstable();
    db.sort_unstable();
    assert_eq!(da, db, "destination block sets differ");
    for &blk in &da {
        let x = a.dst(blk).expect("present in a");
        let y = b.dst(blk).expect("present in b");
        assert_eq!(x.tcp_packets, y.tcp_packets, "{blk}");
        assert_eq!(x.tcp_octets, y.tcp_octets, "{blk}");
        assert_eq!(x.udp_packets, y.udp_packets, "{blk}");
        assert_eq!(x.icmp_packets, y.icmp_packets, "{blk}");
        assert_eq!(x.other_packets, y.other_packets, "{blk}");
        assert_eq!(x.received, y.received, "{blk}");
        assert_eq!(x.received_tcp, y.received_tcp, "{blk}");
        assert_eq!(x.received_big_tcp, y.received_big_tcp, "{blk}");
        assert_eq!(x.avg_tcp_size(), y.avg_tcp_size(), "{blk}");
        assert_eq!(x.median_tcp_size(), y.median_tcp_size(), "{blk}");
        assert_eq!(x.tcp_size_histogram(), y.tcp_size_histogram(), "{blk}");
    }

    let mut sa: Vec<Block24> = a.iter_src().map(|(blk, _)| blk).collect();
    let mut sb: Vec<Block24> = b.iter_src().map(|(blk, _)| blk).collect();
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "source block sets differ");
    for &blk in &sa {
        assert_eq!(a.src(blk), b.src(blk), "{blk}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The columnar store and the map oracle expose identical contents
    /// over random RIBs and random traffic.
    #[test]
    fn columnar_matches_map_oracle(
        slash20s in proptest::collection::vec(300u16..4_000, 0..12),
        specs in proptest::collection::vec(arb_rec(), 0..120),
    ) {
        let (_, slots) = announced_space(&slash20s);
        let records = materialize(&specs, &slots);
        let map = TrafficStats::from_records(&records);
        let col = ColumnarStats::from_records(Arc::clone(&slots), &records);
        assert_views_equal(&map, &col);
    }

    /// The seven-step pipeline returns bit-identical verdicts (dark,
    /// unclean, gray, and the full funnel) on both backends, flat and
    /// sharded.
    #[test]
    fn pipeline_verdicts_are_bit_identical(
        slash20s in proptest::collection::vec(300u16..4_000, 1..10),
        specs in proptest::collection::vec(arb_rec(), 1..150),
        shards in 1usize..5,
    ) {
        let (rib, slots) = announced_space(&slash20s);
        let records = materialize(&specs, &slots);
        let pc = PipelineConfig::default();

        let map = TrafficStats::from_records(&records);
        let col = ColumnarStats::from_records(Arc::clone(&slots), &records);
        let r_map = PipelineEngine::standard().run(&map, &rib, 15, 1, &pc);
        let r_col = PipelineEngine::standard().run(&col, &rib, 15, 1, &pc);
        prop_assert_eq!(&r_map.dark, &r_col.dark);
        prop_assert_eq!(&r_map.unclean, &r_col.unclean);
        prop_assert_eq!(&r_map.gray, &r_col.gray);
        prop_assert_eq!(&r_map.funnel, &r_col.funnel);

        let engine = PipelineEngine::standard();
        for (layout, threads) in [
            (StatsLayout::Map, 1),
            (StatsLayout::Columnar(Arc::clone(&slots)), 1),
            (StatsLayout::Columnar(Arc::clone(&slots)), 3),
        ] {
            let mut sharded =
                ShardedTrafficStats::with_layout(shards, map.size_threshold(), layout);
            for r in &records {
                sharded.ingest(r);
            }
            let r = engine.run_sharded(&sharded, &rib, 15, 1, &pc, threads);
            prop_assert_eq!(&r_map.dark, &r.dark);
            prop_assert_eq!(&r_map.unclean, &r.unclean);
            prop_assert_eq!(&r_map.gray, &r.gray);
            prop_assert_eq!(&r_map.funnel, &r.funnel);
        }
    }
}

/// Full-profile smoke: the full-IPv4 announced space (~14M slots) with
/// a reduced day's traffic, columnar vs map, equal pipeline results.
/// Volumes are sized so the test stays debug-feasible; CI's
/// `full-profile` job runs it in release mode.
#[test]
fn full_profile_day_window_smoke() {
    let net = Internet::generate(InternetConfig::full(), 9);
    let slots = Arc::new(net.slot_index());
    assert!(
        slots.num_slots() > 13_000_000,
        "full profile announces most of usable IPv4"
    );

    // Synthetic radiation: sources from the whole announced space,
    // destinations concentrated on a 10k-slot window mid-space so the
    // touched blocks accumulate enough volume to clear the pipeline's
    // candidate thresholds (40k flows over 14M blocks would not).
    let n = u64::from(slots.num_slots());
    let dense = 10_000u64.min(n);
    let base = (n - dense) / 2;
    let records: Vec<FlowRecord> = (0..40_000u64)
        .map(|i| {
            let dst_block = slots.block_of((base + mix3(0xf0, i, 1) % dense) as u32);
            let src_block = slots.block_of((mix3(0xf0, i, 2) % n) as u32);
            FlowRecord {
                start: SimTime(i),
                src: src_block.addr((mix3(0xf0, i, 3) & 0xff) as u8),
                dst: dst_block.addr((mix3(0xf0, i, 4) & 0x3f) as u8),
                src_port: 40_000,
                dst_port: (mix3(0xf0, i, 5) % 1024) as u16,
                protocol: if i % 4 == 0 { 17 } else { 6 },
                tcp_flags: 2,
                packets: 1 + i % 3,
                octets: 40 * (1 + i % 3),
            }
        })
        .collect();

    let rib = net.rib(metatelescope::types::Day(0));
    let pc = PipelineConfig::default();
    let engine = PipelineEngine::standard();
    let threads = 3;

    let mut map = ShardedTrafficStats::with_layout(8, 100, StatsLayout::Map);
    let mut col =
        ShardedTrafficStats::with_layout(8, 100, StatsLayout::Columnar(Arc::clone(&slots)));
    for r in &records {
        map.ingest(r);
        col.ingest(r);
    }

    assert_views_equal(&map, &col);
    let r_map = engine.run_sharded(&map, &rib, 15, 1, &pc, threads);
    let r_col = engine.run_sharded(&col, &rib, 15, 1, &pc, threads);
    assert_eq!(r_map.dark, r_col.dark);
    assert_eq!(r_map.unclean, r_col.unclean);
    assert_eq!(r_map.gray, r_col.gray);
    assert_eq!(r_map.funnel, r_col.funnel);
    assert!(r_map.classified() > 0, "the window must classify blocks");
}
