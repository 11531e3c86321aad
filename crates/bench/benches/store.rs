//! Store bench: persist, cold-load, and query the results store.
//!
//! Three phases over one synthetic deployment (262 144 slots in 8 192
//! announced prefixes, LCG-generated per-window columns). It is
//! world-shaped where the query path cares: the announced space is
//! fragmented, so slot → block is a search and not a subtraction; the
//! port histogram holds tens of thousands of distinct ports with a long
//! tail of tied counts; and the dark list of a full window passes
//! 100 000 slots. (The first version fed 40 ports and one /8, which is
//! how "1M QPS" coexisted with a 0.8 ms lookup on real traffic.)
//!
//! - `write` — persist N day windows plus the incrementally merged
//!   summary after each, exactly the serve daemon's sink sequence;
//!   reports bytes and throughput.
//! - `cold_load` — rebuild the `QueryIndex` from the files alone:
//!   checksum validation, fingerprint gating, verdict caching.
//! - `query` — point lookups and 256-block range scans against the
//!   loaded cache; reports QPS for each, which CI floors.
//!
//! Emits machine-readable `BENCH_store.json` (path overridable via the
//! `BENCH_STORE_JSON` env var). Run with no `--bench` flag (as
//! `cargo test` does) or with `--smoke` it uses small sizes; under
//! `cargo bench` it uses full sizes.

use mt_flow::stats::DEFAULT_SIZE_THRESHOLD;
use mt_flow::{ColumnSlices, DstRowExport, SrcRowExport};
use mt_store::{QueryIndex, ResultsStore, StoreConfig, SummaryData, Verdicts, WindowData};
use mt_types::{Asn, Block24, Day, Ipv4, Prefix, PrefixTrie, RibIndex, Slot24Index};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct WritePhase {
    windows: u32,
    rows_per_window: usize,
    bytes_written: u64,
    seconds: f64,
    bytes_per_second: f64,
}

#[derive(Serialize)]
struct ColdLoadPhase {
    windows: usize,
    bytes: u64,
    seconds: f64,
    millis: f64,
}

#[derive(Serialize)]
struct QueryPhase {
    point_queries: u64,
    point_seconds: f64,
    point_qps: f64,
    range_scans: u64,
    range_span_blocks: u32,
    range_seconds: f64,
    range_qps: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    write: WritePhase,
    cold_load: ColdLoadPhase,
    query: QueryPhase,
}

struct Sizes {
    windows: u32,
    rows_per_window: usize,
    point_queries: u64,
    range_scans: u64,
}

const SMOKE: Sizes = Sizes {
    windows: 3,
    rows_per_window: 2_000,
    point_queries: 20_000,
    range_scans: 200,
};

const FULL: Sizes = Sizes {
    windows: 14,
    rows_per_window: 160_000,
    point_queries: 200_000,
    range_scans: 2_000,
};

const RANGE_SPAN: u32 = 256;

/// Deterministic 64-bit LCG (PCG multiplier); high bits are well mixed.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

/// The deployment's address space, 16.0.0.0/5, in /24 blocks.
const SPACE_FIRST_BLOCK: u32 = 16 << 16;
const SPACE_BLOCKS: u32 = 1 << 19;

/// Announced /24s: the lower /19 of every /18 of the space.
const NUM_SLOTS: u32 = SPACE_BLOCKS / 2;

/// Distinct destination ports a window's histogram draws from.
const PORT_DRAWS: usize = 48_000;

fn slot_index() -> Arc<Slot24Index> {
    let mut trie = PrefixTrie::new();
    for first in (SPACE_FIRST_BLOCK..SPACE_FIRST_BLOCK + SPACE_BLOCKS).step_by(64) {
        trie.insert(
            Prefix::new(Ipv4(first << 8), 19).expect("aligned /19"),
            Asn(65_000),
        );
    }
    Arc::new(Slot24Index::build(&RibIndex::build(&trie)))
}

/// One synthetic closed window: `rows` populated slots spread evenly
/// over the slot space, a sparse overflow section, verdicts over most
/// of the populated slots (dark two in three), and a world-shaped port
/// histogram.
fn synth_window(day: u32, rows: usize, slots: &Slot24Index) -> WindowData {
    let num = slots.num_slots();
    let rows = rows.min(num as usize);
    let step = (num as usize / rows).max(1);
    let mut st = 0x5EED_0000 ^ u64::from(day).wrapping_mul(0x9E37_79B9);
    let mut columns = ColumnSlices::empty(DEFAULT_SIZE_THRESHOLD);
    let mut verdicts = Verdicts::default();
    for i in 0..rows {
        // One slot per stride keeps ids strictly ascending.
        let slot = (i * step) as u32 + (lcg(&mut st) % step as u64) as u32;
        let r = lcg(&mut st);
        columns.dst.push((
            slot,
            DstRowExport {
                tcp_packets: r % 10_000,
                tcp_octets: (r % 10_000) * 640,
                udp_packets: r % 500,
                icmp_packets: r % 50,
                other_packets: r % 10,
                received: [lcg(&mut st), lcg(&mut st), 0, 0],
                received_tcp: [lcg(&mut st), 0, 0, 0],
                received_big_tcp: [lcg(&mut st) & 0xff, 0, 0, 0],
                tcp_sizes: vec![(40, r % 512 + 1), (1500, r % 64 + 1)],
            },
        ));
        if i % 2 == 0 {
            columns.src.push((
                slot,
                SrcRowExport {
                    packets: r % 2_000,
                    originating: [lcg(&mut st), 0, 0, 0],
                },
            ));
        }
        match r % 12 {
            0..=7 => verdicts.dark_slots.push(slot),
            8 => verdicts.unclean_slots.push(slot),
            9 => verdicts.gray_slots.push(slot),
            _ => {}
        }
        columns.total_flows += r % 100;
        columns.total_packets += r % 1_000;
        columns.total_octets += (r % 1_000) * 640;
    }
    // A handful of rows outside announced space (below 16.0.0.0).
    for i in 0..16u32 {
        let id = i * 1_000 + (lcg(&mut st) % 1_000) as u32;
        columns.ovf_dst.push((
            id,
            DstRowExport {
                udp_packets: lcg(&mut st) % 100,
                received: [lcg(&mut st), 0, 0, 0],
                ..DstRowExport::default()
            },
        ));
        verdicts.dark_blocks.push(id);
    }
    // A few heavy ports, then a long tail whose counts are a handful
    // of packets each — ties by the thousand, as scans and backscatter
    // over the ephemeral range leave them.
    let mut ports: Vec<(u16, u64)> = (0..PORT_DRAWS)
        .map(|i| {
            let port = (lcg(&mut st) % 65_536) as u16;
            let count = if i < 32 {
                lcg(&mut st) % 1_000_000 + 1_000
            } else {
                lcg(&mut st) % 6 + 1
            };
            (port, count)
        })
        .collect();
    ports.sort_unstable();
    ports.dedup_by_key(|&mut (port, _)| port);
    WindowData {
        day: Day(day),
        records: columns.total_flows,
        fingerprint: slots.fingerprint(),
        num_slots: num,
        columns,
        verdicts,
        ports,
    }
}

fn temp_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mt-bench-store-{}", std::process::id()))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = !args.iter().any(|a| a == "--bench")
        || args.iter().any(|a| a == "--smoke" || a == "--test");
    let (mode, sizes) = if smoke {
        ("smoke", SMOKE)
    } else {
        ("full", FULL)
    };
    println!("store bench ({mode} mode)");

    let slots = slot_index();
    let dir = temp_dir();
    std::fs::remove_dir_all(&dir).ok();
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: Arc::clone(&slots),
    })
    .expect("open store");

    // --- write: the daemon sink sequence, window + summary per day ---
    let t0 = Instant::now();
    let mut bytes_written = 0u64;
    let mut summary = SummaryData::empty();
    for day in 0..sizes.windows {
        let w = synth_window(day, sizes.rows_per_window, &slots);
        if !smoke {
            // The shape the CI floors are meant to be measured against.
            assert!(w.ports.len() >= 20_000, "{} ports", w.ports.len());
            assert!(w.verdicts.dark_slots.len() >= 100_000);
        }
        bytes_written += store.write_window(&w).expect("persist window");
        summary.merge_window(&w).expect("incremental merge");
        summary.set_verdicts(w.verdicts.clone());
        bytes_written += store.write_summary(&summary).expect("persist summary");
    }
    let write_seconds = t0.elapsed().as_secs_f64();
    let write = WritePhase {
        windows: sizes.windows,
        rows_per_window: sizes.rows_per_window,
        bytes_written,
        seconds: write_seconds,
        bytes_per_second: bytes_written as f64 / write_seconds,
    };
    println!(
        "write: {} windows x {} rows = {} bytes in {:.3}s ({:.1} MB/s)",
        write.windows,
        write.rows_per_window,
        write.bytes_written,
        write.seconds,
        write.bytes_per_second / 1e6
    );

    // --- cold load: rebuild the query cache from the files alone -----
    let t0 = Instant::now();
    let (index, cold) = QueryIndex::cold_load(&store).expect("cold load");
    let cold_seconds = t0.elapsed().as_secs_f64();
    let cold_load = ColdLoadPhase {
        windows: cold.windows,
        bytes: cold.bytes,
        seconds: cold_seconds,
        millis: cold_seconds * 1e3,
    };
    assert_eq!(cold.windows, sizes.windows as usize);
    println!(
        "cold_load: {} windows, {} bytes in {:.1} ms",
        cold_load.windows, cold_load.bytes, cold_load.millis
    );

    // --- queries against the loaded cache ----------------------------
    let mut st = 0xBEEF;
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for _ in 0..sizes.point_queries {
        let block = slots.block_of((lcg(&mut st) % u64::from(NUM_SLOTS)) as u32);
        let addr = Ipv4(block.base().0 | (lcg(&mut st) % 256) as u32);
        let report = index.point(addr);
        checksum += report.verdict.len() as u64 + u64::from(report.windows);
    }
    let point_seconds = t0.elapsed().as_secs_f64();

    let span = RANGE_SPAN;
    let t0 = Instant::now();
    for _ in 0..sizes.range_scans {
        let day = Day((lcg(&mut st) % u64::from(sizes.windows)) as u32);
        let from = SPACE_FIRST_BLOCK + (lcg(&mut st) % u64::from(SPACE_BLOCKS - span)) as u32;
        let report = index
            .range(day, Block24(from), Block24(from + span - 1))
            .expect("cached day");
        checksum += report.total as u64;
    }
    let range_seconds = t0.elapsed().as_secs_f64();

    let query = QueryPhase {
        point_queries: sizes.point_queries,
        point_seconds,
        point_qps: sizes.point_queries as f64 / point_seconds,
        range_scans: sizes.range_scans,
        range_span_blocks: span,
        range_seconds,
        range_qps: sizes.range_scans as f64 / range_seconds,
    };
    println!(
        "query: {} point lookups = {:.0}/s, {} range scans ({} blocks) = {:.0}/s (checksum {})",
        query.point_queries, query.point_qps, query.range_scans, span, query.range_qps, checksum
    );

    std::fs::remove_dir_all(&dir).ok();

    let report = Report {
        bench: "store",
        mode,
        write,
        cold_load,
        query,
    };
    let path = std::env::var("BENCH_STORE_JSON").unwrap_or_else(|_| "BENCH_store.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
