//! Store codec round-trip and rejection vectors.
//!
//! Property tests drive random columnar windows — announced-slot rows,
//! overflow-block rows, sparse size histograms, verdict lists, port
//! histograms — through encode → decode and require the result to be
//! bit-identical (and the re-encoding byte-identical, so the format is
//! canonical). Rejection vectors then damage encoded files every way a
//! disk or a stale writer can: truncation at every length, bit flips
//! with and without resealed checksums, wrong magic/kind/version — and
//! require a typed [`StoreError`], never a panic, never silently wrong
//! data. The merge gates (fingerprint, threshold, window order) get the
//! same treatment: typed errors that leave the summary untouched.

mod common;

use common::{arb_window, build_window};
use mt_flow::{ColumnSlices, DstBlockStats, HostSet, SrcBlockStats};
use mt_store::{reseal, ResultsStore, StoreConfig, StoreError, SummaryData, Verdicts, WindowData};
use mt_types::{Asn, Day, Ipv4, Prefix, PrefixTrie, RibIndex, Slot24Index};
use proptest::prelude::*;
use std::sync::Arc;

// ------------------------------------------------------------- round trips

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_roundtrip_is_bit_identical(spec in arb_window()) {
        let w = build_window(&spec);
        let bytes = w.encode();
        let decoded = WindowData::decode(&bytes).expect("valid file decodes");
        prop_assert_eq!(&decoded, &w);
        // Canonical encoding: re-encoding the decoded window reproduces
        // the exact same bytes.
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn summary_roundtrip_is_bit_identical(spec in arb_window()) {
        let w1 = build_window(&spec);
        let mut w2 = w1.clone();
        w2.day = Day(w1.day.0 + 1);
        let mut summary = SummaryData::empty();
        summary.merge_window(&w1).expect("first merge");
        summary.merge_window(&w2).expect("second merge");
        summary.set_verdicts(w1.verdicts.clone());
        let bytes = summary.encode();
        let decoded = SummaryData::decode(&bytes).expect("valid summary decodes");
        prop_assert_eq!(&decoded, &summary);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn truncation_is_always_a_typed_error(spec in arb_window()) {
        let w = build_window(&spec);
        let bytes = w.encode();
        // Sample truncation points densely near the header and the
        // tail, sparsely in between — every one must be Truncated.
        let mut cuts: Vec<usize> = (0..70.min(bytes.len())).collect();
        cuts.extend((70..bytes.len()).step_by(17));
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            match WindowData::decode(&bytes[..cut]) {
                Err(StoreError::Truncated { .. }) => {}
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn bit_flips_never_yield_wrong_data(spec in arb_window()) {
        let w = build_window(&spec);
        let bytes = w.encode();
        // Unresealed flips must fail the checksum (or the magic/version
        // gates in front of it). Resealed *payload* flips may decode,
        // but never to the original window — every payload byte is
        // load-bearing, so corruption is either caught or visibly
        // different, never silent. (Header semantics — magic, kind,
        // version — have their own dedicated vectors below; padding
        // and the span field are not part of a window's identity.)
        for pos in (0..bytes.len()).step_by(23) {
            let mut dirty = bytes.clone();
            dirty[pos] ^= 0x10;
            match WindowData::decode(&dirty) {
                Err(_) => {}
                Ok(got) => prop_assert!(false, "flip at {} decoded as {:?}", pos, got.day),
            }
            if pos >= 64 {
                reseal(&mut dirty);
                if let Ok(got) = WindowData::decode(&dirty) {
                    prop_assert!(got != w, "resealed flip at {} decoded silently equal", pos);
                }
            }
        }
    }

    /// A single changed byte anywhere in a version 1 or version 2
    /// payload, every byte of the tail of under 32 bytes that the
    /// version 2 lanes leave to FNV-1a included, fails the payload
    /// checksum when the file is not resealed. A version 1 file is the
    /// version 2 encoding with its version field set to 1 and resealed.
    #[test]
    fn a_payload_byte_flip_fails_the_checksum_in_every_version(
        spec in arb_window(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let v2 = build_window(&spec).encode();
        let mut v1 = v2.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut v1);
        let payload = (v2.len() - 64) as u64;
        let tail = v2.len() - (v2.len() - 64) % 32;
        for bytes in [v1, v2] {
            prop_assert!(WindowData::decode(&bytes).is_ok());
            let mut positions = vec![64 + (at % payload) as usize];
            positions.extend(tail..bytes.len());
            for pos in positions {
                let mut dirty = bytes.clone();
                dirty[pos] ^= mask;
                let got = WindowData::decode(&dirty);
                prop_assert!(
                    matches!(got, Err(StoreError::ChecksumMismatch { .. })),
                    "v{} flip at {}: {:?}", bytes[8], pos, got.map(|w| w.day)
                );
            }
        }
    }
}

// -------------------------------------------------------- rejection vectors

fn sample_window() -> WindowData {
    let mut columns = ColumnSlices::empty(64);
    columns.dst = vec![
        (
            3,
            DstBlockStats {
                tcp_packets: 10,
                tcp_octets: 4000,
                udp_packets: 2,
                icmp_packets: 1,
                other_packets: 0,
                received: HostSet::from_words([0b1011, 0, 0, 0]),
                received_tcp: HostSet::from_words([0b0011, 0, 0, 0]),
                received_big_tcp: HostSet::from_words([0b0001, 0, 0, 0]),
                tcp_sizes: [(40, 8), (1500, 2)].into_iter().collect(),
            },
        ),
        (7, DstBlockStats::default()),
    ];
    columns.src = vec![(
        3,
        SrcBlockStats {
            packets: 5,
            originating: HostSet::from_words([1, 0, 0, 0]),
        },
    )];
    columns.ovf_dst = vec![(
        0x00c0_0002,
        DstBlockStats {
            udp_packets: 9,
            ..DstBlockStats::default()
        },
    )];
    columns.total_flows = 17;
    columns.total_packets = 27;
    columns.total_octets = 4000;
    WindowData {
        day: Day(42),
        records: 17,
        fingerprint: 0xdead_beef_cafe_f00d,
        num_slots: 16,
        columns,
        verdicts: Verdicts {
            dark_slots: vec![1, 7],
            unclean_slots: vec![3],
            gray_slots: vec![],
            dark_blocks: vec![0x00c0_0002],
            unclean_blocks: vec![],
            gray_blocks: vec![],
        },
        ports: vec![(23, 12), (445, 5)],
    }
}

#[test]
fn bad_magic_is_rejected_before_anything_else() {
    let mut bytes = sample_window().encode();
    bytes[0] ^= 0xff;
    assert!(matches!(
        WindowData::decode(&bytes),
        Err(StoreError::BadMagic)
    ));
}

#[test]
fn wrong_kind_is_a_typed_error_both_ways() {
    let w = sample_window();
    let bytes = w.encode();
    // A window file fed to the summary decoder, and vice versa.
    assert!(matches!(
        SummaryData::decode(&bytes),
        Err(StoreError::WrongKind {
            expected: 2,
            found: 1
        })
    ));
    let mut summary = SummaryData::empty();
    summary.merge_window(&w).expect("merge");
    assert!(matches!(
        WindowData::decode(&summary.encode()),
        Err(StoreError::WrongKind {
            expected: 1,
            found: 2
        })
    ));
}

#[test]
fn future_version_is_rejected_even_with_valid_checksums() {
    let mut bytes = sample_window().encode();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    assert!(matches!(
        WindowData::decode(&bytes),
        Err(StoreError::UnsupportedVersion { found: 3 })
    ));
}

#[test]
fn payload_corruption_without_reseal_fails_the_checksum() {
    let mut bytes = sample_window().encode();
    let pos = bytes.len() - 3;
    bytes[pos] ^= 0x01;
    assert!(matches!(
        WindowData::decode(&bytes),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn trailing_garbage_behind_a_valid_payload_is_checksum_gated() {
    // Extra bytes past payload_len are outside the checksummed region;
    // the decoder must simply ignore them (a reader that read a file
    // mid-append sees a valid prefix).
    let w = sample_window();
    let mut bytes = w.encode();
    bytes.extend_from_slice(b"junk");
    let decoded = WindowData::decode(&bytes).expect("valid prefix decodes");
    assert_eq!(decoded, w);
}

/// A histogram past what a row holds in place — five sizes, a count
/// above `u32::MAX` — encodes and decodes like any other, and its
/// bytes equal those of the same entries added one by one.
#[test]
fn a_spilled_size_histogram_round_trips() {
    let entries = [
        (40, 3),
        (44, u64::from(u32::MAX) + 7),
        (48, 1),
        (60, u64::MAX),
        (1500, 2),
    ];
    let mut w = sample_window();
    w.columns.dst[1].1.tcp_sizes = entries.into_iter().collect();
    let bytes = w.encode();
    let decoded = WindowData::decode(&bytes).expect("decodes");
    assert_eq!(decoded, w);
    assert_eq!(
        decoded.columns.dst[1]
            .1
            .tcp_sizes
            .iter()
            .collect::<Vec<_>>(),
        entries
    );
    assert_eq!(decoded.encode(), bytes, "re-encoding is canonical");

    let mut summary = SummaryData::empty();
    summary.merge_window(&w).expect("merge");
    let back = SummaryData::decode(&summary.encode()).expect("summary decodes");
    assert_eq!(back, summary);
    assert_eq!(
        back.columns.dst[1].1.tcp_sizes,
        w.columns.dst[1].1.tcp_sizes
    );
}

#[test]
fn empty_summary_round_trips() {
    let s = SummaryData::empty();
    let decoded = SummaryData::decode(&s.encode()).expect("empty summary decodes");
    assert_eq!(decoded, s);
    assert_eq!(decoded.first_day, None);
    assert_eq!(decoded.windows, 0);
}

// ------------------------------------------------------------- merge gates

#[test]
fn first_merge_into_an_empty_summary_adopts_the_window_identity() {
    let w = sample_window();
    let mut s = SummaryData::empty();
    s.merge_window(&w).expect("first merge always succeeds");
    assert_eq!(s.fingerprint, w.fingerprint);
    assert_eq!(s.num_slots, w.num_slots);
    assert_eq!(s.columns.size_threshold, w.columns.size_threshold);
    assert_eq!(s.first_day, Some(w.day));
    assert_eq!(s.last_day, Some(w.day));
    assert_eq!(s.span_days, 1);
    assert_eq!(s.windows, 1);
    assert_eq!(s.records, w.records);
    // First-dark tracking starts at the first window's day.
    assert_eq!(s.first_dark_slots, vec![(1, 42), (7, 42)]);
}

#[test]
fn fingerprint_mismatch_is_a_typed_error_and_leaves_the_summary_untouched() {
    let w1 = sample_window();
    let mut w2 = w1.clone();
    w2.day = Day(43);
    w2.fingerprint ^= 1;
    let mut s = SummaryData::empty();
    s.merge_window(&w1).expect("first merge");
    let before = s.clone();
    let err = s
        .merge_window(&w2)
        .expect_err("stale fingerprint must fail");
    assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
    assert_eq!(s, before, "failed merge must not mutate the summary");
}

#[test]
fn threshold_mismatch_is_a_typed_error() {
    let w1 = sample_window();
    let mut w2 = w1.clone();
    w2.day = Day(43);
    w2.columns.size_threshold = 128;
    let mut s = SummaryData::empty();
    s.merge_window(&w1).expect("first merge");
    let before = s.clone();
    assert!(matches!(
        s.merge_window(&w2),
        Err(StoreError::ThresholdMismatch {
            expected: 64,
            found: 128
        })
    ));
    assert_eq!(s, before);
}

#[test]
fn out_of_order_and_duplicate_days_are_rejected() {
    let w1 = sample_window();
    let mut s = SummaryData::empty();
    s.merge_window(&w1).expect("first merge");
    // Same day again.
    assert!(matches!(
        s.merge_window(&w1),
        Err(StoreError::WindowOrder {
            last: 42,
            offered: 42
        })
    ));
    // Earlier day.
    let mut w0 = w1.clone();
    w0.day = Day(41);
    assert!(matches!(
        s.merge_window(&w0),
        Err(StoreError::WindowOrder {
            last: 42,
            offered: 41
        })
    ));
}

#[test]
fn merge_accumulates_counts_and_keeps_first_dark_days() {
    let w1 = sample_window();
    let mut w2 = w1.clone();
    w2.day = Day(43);
    w2.verdicts.dark_slots = vec![2, 7]; // 7 already dark on day 42
    let mut s = SummaryData::empty();
    s.merge_window(&w1).expect("merge 1");
    s.merge_window(&w2).expect("merge 2");
    assert_eq!(s.windows, 2);
    assert_eq!(s.records, 34);
    assert_eq!(s.span_days, 2);
    // Slot 7's first-dark day stays 42; slot 2 enters at 43.
    assert_eq!(s.first_dark_slots, vec![(1, 42), (2, 43), (7, 42)]);
    // Ports add across windows.
    assert_eq!(s.ports, vec![(23, 24), (445, 10)]);
    // Counters doubled in the merged dst row.
    let row = &s.columns.dst[0];
    assert_eq!(row.0, 3);
    assert_eq!(row.1.tcp_packets, 20);
    assert_eq!(
        row.1.tcp_sizes.iter().collect::<Vec<_>>(),
        [(40, 16), (1500, 4)]
    );
}

// ------------------------------------------------------------- store gating

/// A tiny announced space: `n` aligned /20s from block 0 upward.
fn slot_index(n: u16) -> Arc<Slot24Index> {
    let mut trie = PrefixTrie::new();
    for id in 0..n {
        let base = Ipv4((u32::from(id) * 16) << 8);
        trie.insert(Prefix::new(base, 20).expect("aligned /20"), Asn(64_512));
    }
    Arc::new(Slot24Index::build(&RibIndex::build(&trie)))
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    // ordering: a uniqueness counter; nothing is published through it.
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mt-store-roundtrip-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

#[test]
fn a_store_written_under_an_old_rib_is_rejected_on_read() {
    let dir = temp_store_dir("stale-rib");
    let old_slots = slot_index(4);
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: Arc::clone(&old_slots),
    })
    .expect("open store");
    let mut w = sample_window();
    w.fingerprint = old_slots.fingerprint();
    w.num_slots = old_slots.num_slots();
    store.write_window(&w).expect("persist window");
    let mut s = SummaryData::empty();
    s.merge_window(&w).expect("merge");
    store.write_summary(&s).expect("persist summary");

    // Same directory reopened under a different announced space: every
    // read is a typed fingerprint error, not misaligned rows.
    let new_slots = slot_index(8);
    assert_ne!(new_slots.fingerprint(), old_slots.fingerprint());
    let stale = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: new_slots,
    })
    .expect("reopen store");
    assert!(matches!(
        stale.read_window(Day(42)),
        Err(StoreError::FingerprintMismatch { .. })
    ));
    assert!(matches!(
        stale.read_summary(),
        Err(StoreError::FingerprintMismatch { .. })
    ));

    // Under the matching index both reads verify and round-trip.
    let fresh = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: old_slots,
    })
    .expect("reopen matching");
    assert_eq!(fresh.read_window(Day(42)).expect("window reads"), w);
    assert_eq!(fresh.read_summary().expect("summary reads"), Some(s));
    assert_eq!(fresh.window_days().expect("scan"), vec![Day(42)]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_summary_reads_as_none() {
    let dir = temp_store_dir("no-summary");
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: slot_index(2),
    })
    .expect("open store");
    assert!(store.read_summary().expect("no summary is fine").is_none());
    assert!(store.window_days().expect("empty scan").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reused_encode_buffer_leaves_no_stale_bytes() {
    // One store writes a large window, then a smaller one, then a
    // summary: each file is exactly its value's fresh encoding, so
    // nothing of an earlier, longer file survives in the reused buffer.
    let dir = temp_store_dir("reused-buffer");
    let slots = slot_index(64);
    let store = ResultsStore::open(StoreConfig {
        dir: dir.clone(),
        slots: Arc::clone(&slots),
    })
    .expect("open store");
    let mut large = sample_window();
    large.fingerprint = slots.fingerprint();
    large.num_slots = slots.num_slots();
    large.columns.dst = (0..slots.num_slots())
        .map(|id| {
            let mut row = large.columns.dst[0].1.clone();
            row.tcp_packets = u64::from(id) * 977;
            (id, row)
        })
        .collect();
    let mut small = sample_window();
    small.day = Day(large.day.0 + 1);
    small.fingerprint = large.fingerprint;
    small.num_slots = large.num_slots;
    let mut summary = SummaryData::empty();
    summary.merge_window(&large).expect("merge large");
    summary.merge_window(&small).expect("merge small");

    let large_bytes = store.write_window(&large).expect("write large");
    let small_bytes = store.write_window(&small).expect("write small");
    assert!(small_bytes < large_bytes, "the second file is the shorter");
    store.write_summary(&summary).expect("write summary");

    for (w, bytes) in [(&large, large_bytes), (&small, small_bytes)] {
        let on_disk = std::fs::read(store.window_path(w.day)).expect("read window");
        assert_eq!(
            on_disk.len() as u64,
            bytes,
            "day {}: bytes reported",
            w.day.0
        );
        assert!(
            on_disk == w.encode(),
            "day {}: file is the encoding",
            w.day.0
        );
        assert_eq!(&WindowData::decode(&on_disk).expect("decodes"), w);
    }
    let on_disk = std::fs::read(store.summary_path()).expect("read summary");
    assert!(on_disk == summary.encode(), "summary file is the encoding");
    assert_eq!(SummaryData::decode(&on_disk).expect("decodes"), summary);
    std::fs::remove_dir_all(&dir).ok();
}
