//! The results-store keystone invariant: a multi-day summary
//! reconstructed by loading and merging persisted window files is
//! bit-identical to the in-process multi-day combination.
//!
//! The chain under test: the stream scheduler closes day windows and a
//! window sink persists each one through `mt-store` (columnar export →
//! delta-coded codec → checksummed file) while incrementally merging
//! the running summary. Afterwards everything is re-read from disk
//! cold: every window file must decode to exactly what was written,
//! the re-merged summary must equal the persisted one byte for byte,
//! the traffic stats rebuilt from the merged columns must be
//! observationally identical to a batch accumulator over the same
//! records, and re-running the pipeline over those rebuilt stats must
//! reproduce the streaming run's final combined verdicts exactly. Last,
//! the `/v1` response bodies answered by the live query index (fed
//! window by window as the daemon's sink feeds it) must equal, byte
//! for byte, those of an index cold-loaded from the files.

use metatelescope::core::combine;
use metatelescope::core::pipeline::{PipelineConfig, PipelineResult};
use metatelescope::core::PipelineEngine;
use metatelescope::flow::sharded::DEFAULT_SHARDS;
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::{FlowRecord, ShardedTrafficStats, TrafficView};
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::store::{
    QueryIndex, ResultsStore, StoreConfig, SummaryData, Verdicts, WindowData,
};
use metatelescope::stream::{MultiStreamService, OverflowPolicy, StreamConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24, Day, Ipv4, RibIndex, SimDuration, Slot24Index};
use metatelescope::wire::ipfix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const DAYS: u32 = 4;
const CHUNK: usize = 1460;

fn temp_store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mt-store-equivalence-{}", std::process::id()))
}

/// Observational equality through the `TrafficView` trait: totals,
/// block sets, per-block destination and source aggregates, and size
/// histograms.
fn assert_views_equal<A: TrafficView, B: TrafficView>(a: &A, b: &B, what: &str) {
    assert_eq!(a.total_flows(), b.total_flows(), "{what}: total flows");
    assert_eq!(
        a.total_packets(),
        b.total_packets(),
        "{what}: total packets"
    );
    assert_eq!(a.total_octets(), b.total_octets(), "{what}: total octets");
    assert_eq!(a.size_threshold(), b.size_threshold(), "{what}: threshold");
    assert_eq!(
        a.dst_block_count(),
        b.dst_block_count(),
        "{what}: dst blocks"
    );
    assert_eq!(
        a.src_block_count(),
        b.src_block_count(),
        "{what}: src blocks"
    );

    let mut da: Vec<Block24> = a.iter_dst().map(|(blk, _)| blk).collect();
    let mut db: Vec<Block24> = b.iter_dst().map(|(blk, _)| blk).collect();
    da.sort_unstable();
    db.sort_unstable();
    assert_eq!(da, db, "{what}: destination block sets differ");
    for &blk in &da {
        let x = a.dst(blk).expect("present in a");
        let y = b.dst(blk).expect("present in b");
        assert_eq!(x.tcp_packets, y.tcp_packets, "{what}: {blk}");
        assert_eq!(x.tcp_octets, y.tcp_octets, "{what}: {blk}");
        assert_eq!(x.udp_packets, y.udp_packets, "{what}: {blk}");
        assert_eq!(x.icmp_packets, y.icmp_packets, "{what}: {blk}");
        assert_eq!(x.other_packets, y.other_packets, "{what}: {blk}");
        assert_eq!(x.received, y.received, "{what}: {blk}");
        assert_eq!(x.received_tcp, y.received_tcp, "{what}: {blk}");
        assert_eq!(x.received_big_tcp, y.received_big_tcp, "{what}: {blk}");
        assert_eq!(
            x.tcp_size_histogram(),
            y.tcp_size_histogram(),
            "{what}: {blk} sizes"
        );
    }
    let mut sa: Vec<Block24> = a.iter_src().map(|(blk, _)| blk).collect();
    let mut sb: Vec<Block24> = b.iter_src().map(|(blk, _)| blk).collect();
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "{what}: source block sets differ");
    for &blk in &sa {
        let x = a.src(blk).expect("present in a");
        let y = b.src(blk).expect("present in b");
        assert_eq!(x.packets, y.packets, "{what}: {blk}");
        assert_eq!(x.originating, y.originating, "{what}: {blk}");
    }
}

fn assert_results_equal(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.dark, b.dark, "{what}: dark sets differ");
    assert_eq!(a.unclean, b.unclean, "{what}: unclean sets differ");
    assert_eq!(a.gray, b.gray, "{what}: gray sets differ");
    assert_eq!(a.funnel, b.funnel, "{what}: funnels differ");
}

#[test]
fn persisted_windows_remerge_to_the_inprocess_combination() {
    // --- the world and its traffic -----------------------------------
    let net = Internet::generate(InternetConfig::small(), 23);
    let cfg = TrafficConfig::test_profile();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let sampling = net.vantage_points[0].sampling_rate;
    let days: Vec<Vec<(String, Vec<FlowRecord>)>> = (0..DAYS)
        .map(|d| {
            let day = Day(d);
            let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
            capture.retain_all_records();
            generate_day(&net, &cfg, day, &mut capture);
            capture
                .vantages
                .into_iter()
                .map(|mut vo| (vo.vp.code.clone(), vo.records.take().unwrap_or_default()))
                .collect()
        })
        .collect();

    // The multi-day combination is keyed by the union RIB's slot space.
    let union_trie = combine::rib_union(&net, Day(0), DAYS);
    let slots = Arc::new(Slot24Index::build(&RibIndex::build(&union_trie)));

    let dir = temp_store_dir();
    std::fs::remove_dir_all(&dir).ok();
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: Arc::clone(&slots),
    })
    .expect("open store");

    // --- stream with a persisting window sink ------------------------
    let (svc, mut lanes) = MultiStreamService::start(
        StreamConfig {
            ingest_threads: 2,
            sampling_rate: sampling,
            overflow: OverflowPolicy::Block,
            allowed_lateness: SimDuration::hours(2),
            ..StreamConfig::default()
        },
        1,
        |day| net.rib(day),
    );
    let live_index = Arc::new(Mutex::new(QueryIndex::new(Arc::clone(&slots))));
    {
        let slots = Arc::clone(&slots);
        let live_index = Arc::clone(&live_index);
        svc.set_window_sink(Box::new(move |w| {
            let verdicts = Verdicts::from_result(w.window, &slots);
            let wd = WindowData::build(w.day, w.records, w.stats, verdicts, w.ports, &slots);
            store.write_window(&wd).expect("persist window");
            let mut index = live_index.lock().expect("index lock"); // lock: test.index
            index.apply_window(&wd, w.combined).expect("merge");
            // check: allow(blocking_under_lock, "test sink: nothing else takes test.index until the service has finished")
            store.write_summary(index.summary()).expect("summary");
        }));
    }
    let mut sequences: HashMap<String, u32> = HashMap::new();
    for (d, per_vp) in days.iter().enumerate() {
        for (code, records) in per_vp {
            let flows: Vec<ipfix::IpfixFlow> = records.iter().map(FlowRecord::to_ipfix).collect();
            let seq = sequences.entry(code.clone()).or_insert(0);
            let bytes: Vec<u8> = ipfix::encode_messages(&flows, d as u32 * 86_400, 1, seq, 64)
                .into_iter()
                .flatten()
                .collect();
            for chunk in bytes.chunks(CHUNK) {
                lanes[0].push_chunk(code, chunk);
            }
        }
    }
    let out = svc.finish(lanes);
    assert_eq!(out.windows.len(), DAYS as usize);
    assert_eq!(out.health.dropped_late, 0);
    let final_combined = &out.combined.last().expect("combined refreshes").result;

    // --- cold re-read: every window decodes to what was written ------
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: Arc::clone(&slots),
    })
    .expect("reopen store");
    let persisted_days = store.window_days().expect("scan windows");
    assert_eq!(
        persisted_days,
        (0..DAYS).map(Day).collect::<Vec<_>>(),
        "one file per closed day"
    );

    let mut remerged = SummaryData::empty();
    for (d, w) in out.windows.iter().enumerate() {
        let wd = store.read_window(Day(d as u32)).expect("window reads back");
        assert_eq!(wd.day, w.day);
        assert_eq!(wd.records, w.records, "day {d}: persisted record count");
        // The persisted verdict lists are exactly the window's pipeline
        // result, split over the union slot space.
        assert_eq!(
            wd.verdicts,
            Verdicts::from_result(&w.result, &slots),
            "day {d}: persisted verdicts"
        );
        let (dark, unclean, gray) = wd.verdicts.to_sets(&slots);
        assert_eq!(dark, w.result.dark, "day {d}: dark set round-trips");
        assert_eq!(
            unclean, w.result.unclean,
            "day {d}: unclean set round-trips"
        );
        assert_eq!(gray, w.result.gray, "day {d}: gray set round-trips");
        remerged.merge_window(&wd).expect("re-merge from disk");
    }
    remerged.set_verdicts(Verdicts::from_result(final_combined, &slots));

    // --- the keystone: disk-remerged == in-process, bit for bit ------
    let live_index = live_index.lock().expect("index lock"); // lock: test.index
    let live = live_index.summary();
    assert_eq!(
        remerged, *live,
        "summary re-merged from persisted windows differs from the in-process one"
    );
    let persisted = store
        .read_summary()
        .expect("summary reads back")
        .expect("summary was written");
    assert_eq!(persisted, *live, "persisted summary differs");

    // The rebuilt accumulator is observationally identical to a batch
    // accumulator over every record of every day.
    let all_records: Vec<FlowRecord> = days
        .iter()
        .flat_map(|per_vp| per_vp.iter().flat_map(|(_, r)| r.iter().copied()))
        .collect();
    let batch = ShardedTrafficStats::from_records(DEFAULT_SHARDS, &all_records);
    let restored = remerged.to_stats(&slots);
    assert_views_equal(&restored, &batch, "restored stats vs batch");

    // Re-running the pipeline over the restored stats reproduces the
    // streaming run's final multi-day combination exactly.
    let rerun = PipelineEngine::standard().run(
        &restored,
        &union_trie,
        sampling,
        DAYS,
        &PipelineConfig::default(),
    );
    assert_results_equal(&rerun, final_combined, "pipeline over restored stats");

    // Merged ports are the whole fleet's destination-port histogram.
    let mut expected_ports: HashMap<u16, u64> = HashMap::new();
    for r in &all_records {
        *expected_ports.entry(r.dst_port).or_insert(0) += r.packets;
    }
    let mut expected_ports: Vec<(u16, u64)> = expected_ports.into_iter().collect();
    expected_ports.sort_unstable();
    assert_eq!(remerged.ports, expected_ports, "summary port histogram");

    // --- the query cache serves the same truth -----------------------
    let (index, cold) = QueryIndex::cold_load(&store).expect("cold load");
    assert_eq!(cold.windows, DAYS as usize);
    assert_eq!(index.summary(), &persisted);
    if let Some(block) = final_combined.dark.iter().next() {
        let report = index.point(block.base());
        assert_eq!(report.verdict, "dark", "known dark block answers dark");
        assert_eq!(report.windows, DAYS);
        // First-dark day: the earliest window whose dark set holds it.
        let first = out
            .windows
            .iter()
            .find(|w| w.result.dark.contains(block))
            .map(|w| w.day.0);
        assert_eq!(report.since_day, first, "since-day matches the windows");
    }
    let report = index
        .range(Day(0), Block24(0), Block24(0x00ff_ffff))
        .expect("day 0 is cached");
    let w0 = &out.windows[0].result;
    assert_eq!(
        report.total,
        w0.dark.len() + w0.unclean.len() + w0.gray.len(),
        "full-space range scan covers every day-0 verdict"
    );

    // --- and in the same bytes: `/v1` bodies, live vs reloaded --------
    // Every block that ever carried a verdict, their neighbours, and
    // addresses outside announced space.
    let mut probes: Vec<Block24> = out
        .windows
        .iter()
        .map(|w| &w.result)
        .chain([final_combined])
        .flat_map(|r| r.dark.iter().chain(r.unclean.iter()).chain(r.gray.iter()))
        .flat_map(|b| [b, Block24(b.0.saturating_sub(1)), Block24(b.0 + 1)])
        .chain([Block24(0), Block24::containing(Ipv4::new(240, 0, 0, 0))])
        .collect();
    probes.sort_unstable();
    probes.dedup();
    let point_body =
        |i: &QueryIndex, b: Block24| serde_json::to_string(&i.point(b.base())).expect("serializes");
    for &block in &probes {
        assert_eq!(
            point_body(&live_index, block),
            point_body(&index, block),
            "/v1/block/{} differs after reload",
            block.base()
        );
    }
    let range_body = |i: &QueryIndex, d: u32, from: Block24, to: Block24| {
        serde_json::to_string(&i.range(Day(d), from, to)).expect("serializes")
    };
    let (first, last) = (probes[0], probes[probes.len() - 1]);
    let mid = probes[probes.len() / 2];
    for d in 0..=DAYS {
        for (from, to) in [(first, last), (first, mid), (mid, last), (mid, mid)] {
            assert_eq!(
                range_body(&live_index, d, from, to),
                range_body(&index, d, from, to),
                "/v1/windows/{d}/verdicts?from={}&to={} differs after reload",
                from.base(),
                to.base()
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
