//! Golden files: committed `.mtw` + `.mts` pairs that every build must
//! decode and cold-load to the same answers, one pair per format
//! version it reads.
//!
//! Each pair was written by [`regenerate_golden_files`] from a fixed,
//! hand-built traffic set over a six-slot index: slot and overflow
//! rows on both sides, TCP size histograms (one from a host sweep),
//! UDP/ICMP/other counters, all six verdict lists, port histograms,
//! and first-dark lists over a two-day summary. The files pin the
//! on-disk format independently of the codec that reads them: a codec
//! change that alters a single byte fails here, however
//! self-consistent its own round trip is.
//!
//! The version 1 pair sits at the top of `tests/golden/`, as the last
//! build that wrote version 1 left it; the current version's pair sits
//! in `tests/golden/v2/` and must re-encode byte for byte. A version 1
//! file re-encodes to the same bytes except the version field and the
//! two checksums.
//!
//! Regenerate the current version's pair (only for a deliberate format
//! change, together with a version bump) with
//! `cargo test -p mt-store --test golden -- --ignored regenerate_golden_files`.

use mt_flow::{FlowRecord, TrafficStats};
use mt_store::format::{ACCEPTED_VERSIONS, HEADER_LEN, VERSION};
use mt_store::{QueryIndex, ResultsStore, StoreConfig, SummaryData, Verdicts, WindowData};
use mt_types::{Asn, Block24, Day, Ipv4, Prefix, PrefixTrie, RibIndex, SimTime, Slot24Index};
use std::path::PathBuf;
use std::sync::Arc;

const WINDOW_FILE: &str = "window-00004.mtw";
const SUMMARY_FILE: &str = "summary.mts";

/// Where one format version's pair lives: version 1's at the top of
/// `tests/golden/`, every later version's in its own `v<N>/`.
fn golden_dir(version: u32) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    match version {
        1 => dir,
        v => dir.join(format!("v{v}")),
    }
}

/// Six slots: 20.0.0.0/22 (slots 0–3) and 20.1.0.0/23 (slots 4–5).
/// Everything under 30.0.0.0/8 is overflow.
fn slots() -> Arc<Slot24Index> {
    let mut trie = PrefixTrie::new();
    for (base, len) in [(Ipv4::new(20, 0, 0, 0), 22), (Ipv4::new(20, 1, 0, 0), 23)] {
        trie.insert(Prefix::containing(base, len), Asn(64_512));
    }
    Arc::new(Slot24Index::build(&RibIndex::build(&trie)))
}

fn flow(src: Ipv4, dst: Ipv4, protocol: u8, packets: u64, size: u64, port: u16) -> FlowRecord {
    FlowRecord {
        start: SimTime(0),
        src,
        dst,
        src_port: 40_000,
        dst_port: port,
        protocol,
        tcp_flags: if protocol == 6 { 0x02 } else { 0 },
        packets,
        octets: packets * size,
    }
}

fn slot(slots: &Slot24Index, a: u8, b: u8, c: u8) -> u32 {
    slots
        .slot_of(Block24::containing(Ipv4::new(a, b, c, 0)))
        .expect("announced block")
}

fn block(a: u8, b: u8, c: u8) -> u32 {
    Block24::containing(Ipv4::new(a, b, c, 0)).0
}

/// One day's traffic. Day 4 repeats part of day 3 with new sizes, so
/// the summary's histograms merge by size.
fn traffic(day: u32) -> TrafficStats {
    let outside = Ipv4::new(9, 9, 9, 1);
    let mut stats = TrafficStats::with_size_threshold(60);
    let mut records = vec![
        flow(outside, Ipv4::new(20, 0, 0, 5), 6, 3, 40, 23),
        flow(outside, Ipv4::new(20, 0, 0, 9), 6, 2, 1500, 80),
        flow(outside, Ipv4::new(20, 0, 1, 7), 17, 4, 100, 53),
        flow(outside, Ipv4::new(20, 0, 2, 1), 1, 1, 64, 0),
        flow(outside, Ipv4::new(20, 1, 1, 3), 47, 2, 80, 0),
        flow(outside, Ipv4::new(30, 0, 0, 5), 6, 5, 52, 445),
        flow(outside, Ipv4::new(30, 0, 5, 1), 17, 1, 120, 161),
        flow(
            Ipv4::new(20, 1, 0, 10),
            Ipv4::new(30, 0, 0, 6),
            6,
            1,
            40,
            23,
        ),
    ];
    if day == 4 {
        records.push(flow(outside, Ipv4::new(20, 0, 0, 5), 6, 2, 48, 2323));
        records.push(flow(
            Ipv4::new(20, 0, 3, 7),
            Ipv4::new(20, 1, 1, 4),
            6,
            6,
            44,
            23,
        ));
    }
    for r in &records {
        stats.ingest(r);
    }
    stats.ingest_sweep(
        &flow(
            Ipv4::new(30, 0, 9, 9),
            Ipv4::new(20, 0, 3, 0),
            6,
            20,
            44 + u64::from(day),
            23,
        ),
        0x5eed + u64::from(day),
    );
    stats
}

fn window(day: u32, slots: &Slot24Index) -> WindowData {
    let stats = traffic(day);
    let verdicts = Verdicts {
        dark_slots: if day == 3 {
            vec![slot(slots, 20, 0, 1), slot(slots, 20, 0, 3)]
        } else {
            vec![slot(slots, 20, 0, 3), slot(slots, 20, 1, 1)]
        },
        unclean_slots: vec![slot(slots, 20, 0, 2)],
        gray_slots: vec![slot(slots, 20, 0, 0), slot(slots, 20, 1, 0)],
        dark_blocks: vec![block(30, 0, day as u8)],
        unclean_blocks: vec![block(30, 0, 5)],
        gray_blocks: vec![block(30, 0, 9)],
    };
    let ports: &[(u16, u64)] = if day == 3 {
        &[(23, 10), (445, 3)]
    } else {
        &[(23, 5), (80, 2), (2323, 7)]
    };
    WindowData::build(Day(day), stats.total_flows, &stats, verdicts, ports, slots)
}

fn summary(slots: &Slot24Index) -> SummaryData {
    let mut s = SummaryData::empty();
    for day in [3, 4] {
        s.merge_window(&window(day, slots)).expect("in-order merge");
    }
    s.set_verdicts(Verdicts {
        dark_slots: vec![slot(slots, 20, 0, 3)],
        unclean_slots: vec![slot(slots, 20, 0, 2), slot(slots, 20, 1, 1)],
        gray_slots: vec![slot(slots, 20, 0, 0)],
        dark_blocks: vec![block(30, 0, 4)],
        unclean_blocks: vec![block(30, 0, 5)],
        gray_blocks: vec![block(30, 0, 0), block(30, 0, 9)],
    });
    s
}

/// Day 5 for the resume test: day 4's traffic shape, with a dark
/// overflow block of its own.
fn day_5(slots: &Slot24Index) -> WindowData {
    let mut w = window(5, slots);
    w.verdicts.dark_blocks = vec![block(30, 0, 6)];
    w
}

/// The combined verdicts over days 3–5.
fn combined_after_day_5(slots: &Slot24Index) -> Verdicts {
    Verdicts {
        dark_slots: vec![slot(slots, 20, 0, 3), slot(slots, 20, 1, 1)],
        unclean_slots: vec![slot(slots, 20, 0, 2)],
        gray_slots: vec![slot(slots, 20, 0, 0)],
        dark_blocks: vec![block(30, 0, 4), block(30, 0, 6)],
        unclean_blocks: vec![block(30, 0, 5)],
        gray_blocks: vec![block(30, 0, 0), block(30, 0, 9)],
    }
}

fn golden(version: u32, name: &str) -> Vec<u8> {
    std::fs::read(golden_dir(version).join(name)).expect("golden file present")
}

fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[8..12].try_into().expect("four bytes"))
}

/// A fresh store directory holding `files`.
fn temp_store(tag: &str, files: &[(&str, Vec<u8>)]) -> (PathBuf, ResultsStore) {
    let dir = std::env::temp_dir().join(format!("mt-store-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("copy golden file");
    }
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: slots(),
    })
    .expect("open store");
    (dir, store)
}

fn golden_pair(version: u32) -> [(&'static str, Vec<u8>); 2] {
    [WINDOW_FILE, SUMMARY_FILE].map(|name| (name, golden(version, name)))
}

#[test]
#[ignore = "rewrites the committed golden files"]
fn regenerate_golden_files() {
    let slots = slots();
    let dir = golden_dir(VERSION);
    std::fs::create_dir_all(&dir).expect("golden dir");
    std::fs::write(dir.join(WINDOW_FILE), window(4, &slots).encode()).expect("write window");
    std::fs::write(dir.join(SUMMARY_FILE), summary(&slots).encode()).expect("write summary");
}

#[test]
fn golden_files_decode_and_re_encode_byte_for_byte() {
    let bytes = golden(VERSION, WINDOW_FILE);
    let w = WindowData::decode(&bytes).expect("golden window decodes");
    assert_eq!(w.encode(), bytes);
    let bytes = golden(VERSION, SUMMARY_FILE);
    let s = SummaryData::decode(&bytes).expect("golden summary decodes");
    assert_eq!(s.encode(), bytes);
}

#[test]
fn v1_golden_files_re_encode_as_v2_with_the_same_payload() {
    let slots = slots();
    let w = WindowData::decode(&golden(1, WINDOW_FILE)).expect("v1 window decodes");
    assert_eq!(w, window(4, &slots));
    let s = SummaryData::decode(&golden(1, SUMMARY_FILE)).expect("v1 summary decodes");
    assert_eq!(s, summary(&slots));
    for (v1, again) in [
        (golden(1, WINDOW_FILE), w.encode()),
        (golden(1, SUMMARY_FILE), s.encode()),
    ] {
        assert_eq!((version_of(&v1), version_of(&again)), (1, VERSION));
        assert_eq!(again.len(), v1.len());
        assert_eq!(again[..8], v1[..8], "magic");
        assert_eq!(again[12..48], v1[12..48], "kind, day, span, index, length");
        assert_eq!(again[HEADER_LEN..], v1[HEADER_LEN..], "payload");
    }
}

#[test]
fn the_golden_inputs_still_encode_to_the_golden_bytes() {
    let slots = slots();
    assert_eq!(window(4, &slots).encode(), golden(VERSION, WINDOW_FILE));
    assert_eq!(summary(&slots).encode(), golden(VERSION, SUMMARY_FILE));
}

/// The answers [`EXPECTED`] pins, from `index`.
fn answers(index: &QueryIndex) -> Vec<String> {
    let all = |day| {
        json(&index.range(
            Day(day),
            Block24::containing(Ipv4::new(0, 0, 0, 0)),
            Block24::containing(Ipv4::new(255, 255, 255, 0)),
        ))
    };
    vec![
        json(&index.point(Ipv4::new(20, 0, 0, 77))),
        json(&index.point(Ipv4::new(20, 0, 3, 1))),
        json(&index.point(Ipv4::new(20, 1, 1, 200))),
        json(&index.point(Ipv4::new(30, 0, 0, 1))),
        json(&index.point(Ipv4::new(30, 0, 4, 1))),
        json(&index.point(Ipv4::new(40, 0, 0, 1))),
        all(4),
        json(&index.range(
            Day(4),
            Block24::containing(Ipv4::new(20, 0, 2, 0)),
            Block24::containing(Ipv4::new(20, 1, 0, 0)),
        )),
        all(3),
    ]
}

#[test]
fn golden_files_cold_load_to_fixed_answers() {
    for version in ACCEPTED_VERSIONS {
        let pair = golden_pair(version);
        let (dir, store) = temp_store(&format!("v{version}"), &pair);
        let (index, load) = QueryIndex::cold_load(&store).expect("golden store cold-loads");
        let got = answers(&index);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((load.windows, load.quarantined), (1, 0), "v{version}");
        let read: u64 = pair.iter().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(load.bytes, read, "v{version}: every byte read is counted");
        assert_eq!(got, EXPECTED, "v{version}");
    }
}

#[test]
fn a_v1_store_resumes_and_continues_in_v2() {
    let slots = slots();
    let (dir, store) = temp_store("resume", &golden_pair(1));
    let (mut index, load) = QueryIndex::cold_load(&store).expect("v1 store cold-loads");
    assert_eq!((load.windows, load.quarantined), (1, 0));

    // Close day 5 as the daemon's window sink does.
    let w = day_5(&slots);
    store.write_window(&w).expect("write day 5");
    index
        .apply_verdicts(&w, w.verdicts.clone(), combined_after_day_5(&slots))
        .expect("day 5 follows day 4");
    store.write_summary(index.summary()).expect("write summary");

    let (index, load) = QueryIndex::cold_load(&store).expect("mixed store cold-loads");
    let read = |name: &str| std::fs::read(dir.join(name)).expect("store file");
    let versions = [
        version_of(&read(WINDOW_FILE)),
        version_of(&read("window-00005.mtw")),
        version_of(&read(SUMMARY_FILE)),
    ];
    let day_4_untouched = read(WINDOW_FILE) == golden(1, WINDOW_FILE);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(versions, [1, VERSION, VERSION]);
    assert!(day_4_untouched, "the v1 window is read, never rewritten");
    assert_eq!((load.windows, load.quarantined), (2, 0));

    let mut reference = summary(&slots);
    reference.merge_window(&w).expect("in-process merge");
    reference.set_verdicts(combined_after_day_5(&slots));
    assert_eq!(index.summary(), &reference);

    let mut got = answers(&index);
    got.push(json(&index.point(Ipv4::new(30, 0, 6, 1))));
    got.push(json(&index.range(
        Day(5),
        Block24::containing(Ipv4::new(0, 0, 0, 0)),
        Block24::containing(Ipv4::new(255, 255, 255, 0)),
    )));
    assert_eq!(got, EXPECTED_AFTER_DAY_5);
}

/// One answer as one JSON line, the form `/v1` serves it in.
fn json(answer: &impl serde::Serialize) -> String {
    serde_json::to_string(answer).expect("answers serialise")
}

/// The answers the golden pair gave when it was written, one JSON line
/// each: five point lookups (slot and overflow, every verdict, an
/// unseen block), two range scans of day 4, and day 3 (no window).
const EXPECTED: [&str; 9] = [
    r#"{"block":"20.0.0.0","routed":true,"verdict":"gray","since_day":null,"windows":2,"span_days":2,"profile":{"tcp_packets":12,"tcp_octets":6336,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":2,"top_sizes":[{"size":40,"count":6},{"size":1500,"count":4},{"size":48,"count":2}]},"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"block":"20.0.3.0","routed":true,"verdict":"dark","since_day":3,"windows":2,"span_days":2,"profile":{"tcp_packets":40,"tcp_octets":1900,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":36,"top_sizes":[{"size":47,"count":20},{"size":48,"count":20}]},"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"block":"20.1.1.0","routed":true,"verdict":"unclean","since_day":4,"windows":2,"span_days":2,"profile":{"tcp_packets":6,"tcp_octets":264,"udp_packets":0,"icmp_packets":0,"other_packets":4,"hosts":2,"top_sizes":[{"size":44,"count":6}]},"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"block":"30.0.0.0","routed":false,"verdict":"gray","since_day":null,"windows":2,"span_days":2,"profile":{"tcp_packets":12,"tcp_octets":600,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":2,"top_sizes":[{"size":52,"count":10},{"size":40,"count":2}]},"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"block":"30.0.4.0","routed":false,"verdict":"dark","since_day":4,"windows":2,"span_days":2,"profile":null,"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"block":"40.0.0.0","routed":false,"verdict":"unseen","since_day":null,"windows":2,"span_days":2,"profile":null,"top_ports":[{"port":23,"count":15},{"port":2323,"count":7},{"port":445,"count":3},{"port":80,"count":2}]}"#,
    r#"{"day":4,"from":"0.0.0.0","to":"255.255.255.0","total":8,"truncated":false,"verdicts":[{"block":"20.0.0.0","verdict":"gray"},{"block":"20.0.2.0","verdict":"unclean"},{"block":"20.0.3.0","verdict":"dark"},{"block":"20.1.0.0","verdict":"gray"},{"block":"20.1.1.0","verdict":"dark"},{"block":"30.0.4.0","verdict":"dark"},{"block":"30.0.5.0","verdict":"unclean"},{"block":"30.0.9.0","verdict":"gray"}]}"#,
    r#"{"day":4,"from":"20.0.2.0","to":"20.1.0.0","total":3,"truncated":false,"verdicts":[{"block":"20.0.2.0","verdict":"unclean"},{"block":"20.0.3.0","verdict":"dark"},{"block":"20.1.0.0","verdict":"gray"}]}"#,
    r#"null"#,
];

/// The same questions after day 5 closed over the version 1 store,
/// then a point lookup of day 5's dark overflow block and a range scan
/// of day 5.
const EXPECTED_AFTER_DAY_5: [&str; 11] = [
    r#"{"block":"20.0.0.0","routed":true,"verdict":"gray","since_day":null,"windows":3,"span_days":3,"profile":{"tcp_packets":17,"tcp_octets":9456,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":2,"top_sizes":[{"size":40,"count":9},{"size":1500,"count":6},{"size":48,"count":2}]},"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"block":"20.0.3.0","routed":true,"verdict":"dark","since_day":3,"windows":3,"span_days":3,"profile":{"tcp_packets":60,"tcp_octets":2880,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":53,"top_sizes":[{"size":47,"count":20},{"size":48,"count":20},{"size":49,"count":20}]},"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"block":"20.1.1.0","routed":true,"verdict":"dark","since_day":4,"windows":3,"span_days":3,"profile":{"tcp_packets":6,"tcp_octets":264,"udp_packets":0,"icmp_packets":0,"other_packets":6,"hosts":2,"top_sizes":[{"size":44,"count":6}]},"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"block":"30.0.0.0","routed":false,"verdict":"gray","since_day":null,"windows":3,"span_days":3,"profile":{"tcp_packets":18,"tcp_octets":900,"udp_packets":0,"icmp_packets":0,"other_packets":0,"hosts":2,"top_sizes":[{"size":52,"count":15},{"size":40,"count":3}]},"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"block":"30.0.4.0","routed":false,"verdict":"dark","since_day":4,"windows":3,"span_days":3,"profile":null,"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"block":"40.0.0.0","routed":false,"verdict":"unseen","since_day":null,"windows":3,"span_days":3,"profile":null,"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"day":4,"from":"0.0.0.0","to":"255.255.255.0","total":8,"truncated":false,"verdicts":[{"block":"20.0.0.0","verdict":"gray"},{"block":"20.0.2.0","verdict":"unclean"},{"block":"20.0.3.0","verdict":"dark"},{"block":"20.1.0.0","verdict":"gray"},{"block":"20.1.1.0","verdict":"dark"},{"block":"30.0.4.0","verdict":"dark"},{"block":"30.0.5.0","verdict":"unclean"},{"block":"30.0.9.0","verdict":"gray"}]}"#,
    r#"{"day":4,"from":"20.0.2.0","to":"20.1.0.0","total":3,"truncated":false,"verdicts":[{"block":"20.0.2.0","verdict":"unclean"},{"block":"20.0.3.0","verdict":"dark"},{"block":"20.1.0.0","verdict":"gray"}]}"#,
    r#"null"#,
    r#"{"block":"30.0.6.0","routed":false,"verdict":"dark","since_day":5,"windows":3,"span_days":3,"profile":null,"top_ports":[{"port":23,"count":20},{"port":2323,"count":14},{"port":80,"count":4},{"port":445,"count":3}]}"#,
    r#"{"day":5,"from":"0.0.0.0","to":"255.255.255.0","total":8,"truncated":false,"verdicts":[{"block":"20.0.0.0","verdict":"gray"},{"block":"20.0.2.0","verdict":"unclean"},{"block":"20.0.3.0","verdict":"dark"},{"block":"20.1.0.0","verdict":"gray"},{"block":"20.1.1.0","verdict":"dark"},{"block":"30.0.5.0","verdict":"unclean"},{"block":"30.0.6.0","verdict":"dark"},{"block":"30.0.9.0","verdict":"gray"}]}"#,
];
