//! Random windows for the store's property tests: announced-slot
//! rows, overflow-block rows, sparse size histograms, verdict lists and
//! port histograms. Shared by `tests/roundtrip.rs` and the format
//! module's unit tests, which check the verdict-only load against the
//! decoder and the decoder against its oracle on the same windows.

#![allow(dead_code)]

use mt_flow::{ColumnSlices, DstBlockStats, HostSet, SrcBlockStats};
use mt_store::{Verdicts, WindowData};
use mt_types::Day;
use proptest::prelude::*;

// ---------------------------------------------------------------- strategies

/// splitmix64: expands one seed into well-mixed word patterns so host
/// bitmaps exercise arbitrary bits without 12 extra strategy slots.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub fn hosts(seed: u64) -> HostSet {
    HostSet::from_words([mix(seed), mix(seed ^ 1), mix(seed ^ 2), mix(seed ^ 3)])
}

#[derive(Debug, Clone)]
pub struct DstSpec {
    pub id: u32,
    pub counters: (u64, u64, u64, u64, u64),
    pub wseed: u64,
    pub sizes: Vec<(u16, u64)>,
}

pub fn arb_dst() -> impl Strategy<Value = DstSpec> {
    (
        any::<u32>(),
        (
            0u64..=1_000_000,
            0u64..=1_000_000_000,
            0u64..=1_000_000,
            0u64..=10_000,
            0u64..=10_000,
        ),
        any::<u64>(),
        proptest::collection::vec((any::<u16>(), 1u64..=100_000), 0..6),
    )
        .prop_map(|(id, counters, wseed, sizes)| DstSpec {
            id,
            counters,
            wseed,
            sizes,
        })
}

pub fn arb_src() -> impl Strategy<Value = (u32, u64, u64)> {
    (any::<u32>(), 0u64..=1_000_000_000, any::<u64>())
}

pub type VerdictPicks = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);

#[derive(Debug, Clone)]
pub struct WindowSpec {
    pub day: u32,
    pub records: u64,
    pub fingerprint: u64,
    pub num_slots: u32,
    pub dst: Vec<DstSpec>,
    pub src: Vec<(u32, u64, u64)>,
    pub ovf_dst: Vec<DstSpec>,
    pub ovf_src: Vec<(u32, u64, u64)>,
    pub verdicts: VerdictPicks,
    pub ports: Vec<(u16, u64)>,
    pub totals: (u64, u64, u64),
    pub size_threshold: u16,
}

pub fn arb_window() -> impl Strategy<Value = WindowSpec> {
    (
        1u32..=30_000,
        0u64..=1_000_000_000_000,
        any::<u64>(),
        1u32..=4096,
        proptest::collection::vec(arb_dst(), 0..24),
        proptest::collection::vec(arb_src(), 0..24),
        proptest::collection::vec(arb_dst(), 0..6),
        proptest::collection::vec(arb_src(), 0..6),
        (
            proptest::collection::vec(any::<u32>(), 0..16),
            proptest::collection::vec(any::<u32>(), 0..16),
            proptest::collection::vec(any::<u32>(), 0..16),
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::collection::vec(any::<u32>(), 0..8),
            proptest::collection::vec(any::<u32>(), 0..8),
        ),
        proptest::collection::vec((any::<u16>(), 1u64..=u64::from(u32::MAX)), 0..10),
        (
            0u64..=1_000_000_000_000,
            0u64..=1_000_000_000_000,
            0u64..=1_000_000_000_000,
        ),
        any::<u16>(),
    )
        .prop_map(
            |(
                day,
                records,
                fingerprint,
                num_slots,
                dst,
                src,
                ovf_dst,
                ovf_src,
                verdicts,
                ports,
                totals,
                size_threshold,
            )| WindowSpec {
                day,
                records,
                fingerprint,
                num_slots,
                dst,
                src,
                ovf_dst,
                ovf_src,
                verdicts,
                ports,
                totals,
                size_threshold,
            },
        )
}

// ------------------------------------------------------------- construction

/// Raw picks → strictly ascending unique ids below `bound`, the shape
/// every delta-coded list requires.
pub fn ascending(picks: &[u32], bound: u32) -> Vec<u32> {
    let mut v: Vec<u32> = picks.iter().map(|&x| x % bound).collect();
    v.sort_unstable();
    v.dedup();
    v
}

pub fn dst_row(s: &DstSpec) -> DstBlockStats {
    let mut sizes = s.sizes.clone();
    sizes.sort_unstable_by_key(|&(sz, _)| sz);
    sizes.dedup_by_key(|pair| pair.0);
    DstBlockStats {
        tcp_packets: s.counters.0,
        tcp_octets: s.counters.1,
        udp_packets: s.counters.2,
        icmp_packets: s.counters.3,
        other_packets: s.counters.4,
        received: hosts(s.wseed),
        received_tcp: hosts(s.wseed ^ 0x5555),
        received_big_tcp: hosts(s.wseed ^ 0xaaaa),
        tcp_sizes: sizes.into_iter().collect(),
    }
}

pub fn dst_rows(specs: &[DstSpec], bound: u32) -> Vec<(u32, DstBlockStats)> {
    let mut rows: Vec<(u32, DstBlockStats)> =
        specs.iter().map(|s| (s.id % bound, dst_row(s))).collect();
    rows.sort_unstable_by_key(|&(id, _)| id);
    rows.dedup_by_key(|row| row.0);
    rows
}

pub fn src_rows(specs: &[(u32, u64, u64)], bound: u32) -> Vec<(u32, SrcBlockStats)> {
    let mut rows: Vec<(u32, SrcBlockStats)> = specs
        .iter()
        .map(|&(id, packets, wseed)| {
            (
                id % bound,
                SrcBlockStats {
                    packets,
                    originating: hosts(wseed),
                },
            )
        })
        .collect();
    rows.sort_unstable_by_key(|&(id, _)| id);
    rows.dedup_by_key(|row| row.0);
    rows
}

pub const BLOCK_SPACE: u32 = 1 << 24;

pub fn build_window(spec: &WindowSpec) -> WindowData {
    let mut columns = ColumnSlices::empty(spec.size_threshold);
    columns.dst = dst_rows(&spec.dst, spec.num_slots);
    columns.src = src_rows(&spec.src, spec.num_slots);
    columns.ovf_dst = dst_rows(&spec.ovf_dst, BLOCK_SPACE);
    columns.ovf_src = src_rows(&spec.ovf_src, BLOCK_SPACE);
    columns.total_flows = spec.totals.0;
    columns.total_packets = spec.totals.1;
    columns.total_octets = spec.totals.2;
    let mut ports = spec.ports.clone();
    ports.sort_unstable_by_key(|&(p, _)| p);
    ports.dedup_by_key(|pair| pair.0);
    let v = &spec.verdicts;
    WindowData {
        day: Day(spec.day),
        records: spec.records,
        fingerprint: spec.fingerprint,
        num_slots: spec.num_slots,
        columns,
        verdicts: Verdicts {
            dark_slots: ascending(&v.0, spec.num_slots),
            unclean_slots: ascending(&v.1, spec.num_slots),
            gray_slots: ascending(&v.2, spec.num_slots),
            dark_blocks: ascending(&v.3, BLOCK_SPACE),
            unclean_blocks: ascending(&v.4, BLOCK_SPACE),
            gray_blocks: ascending(&v.5, BLOCK_SPACE),
        },
        ports,
    }
}
