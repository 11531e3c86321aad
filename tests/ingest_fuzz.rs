//! Whole-path fuzz: whatever bytes exporters send — valid exports,
//! mutated ones, byte soups — as stream chunks or as datagrams, at
//! lanes ∈ {1, 2, 4}, the streaming service's `finish` returns, its
//! health identities hold, and each window equals the serial batch
//! pipeline over the records the window gate accepted for its day.
//!
//! The oracle mirrors the service's front half with public parts: one
//! `StreamCollector` per lane decodes the same pieces in the same order,
//! and one `WindowTracker` gates what they decode. One thread drives
//! every lane, so the service's gate sees that same sequence. Datagram
//! feeds go in runs of a seeded length, each gated as one batch, so
//! mutated and torn datagrams sit mid-run; the oracle decodes them one
//! by one.
//!
//! Flows come from the full-range strategy mt-wire's property tests use
//! (`crates/wire/tests/properties.rs`): packet and octet counts anywhere
//! in `u64`, start times anywhere in `u32` seconds. Each export may
//! arrive more than once, as a duplicated datagram does, so counts near
//! 2^64 meet in one block's counters; and a case may fold its start
//! times into three days, so most records land in open windows instead
//! of behind a far-future watermark.

use metatelescope::core::pipeline::PipelineResult;
use metatelescope::core::PipelineEngine;
use metatelescope::flow::sharded::DEFAULT_SHARDS;
use metatelescope::flow::{FlowRecord, ShardedTrafficStats};
use metatelescope::stream::{
    Gate, MultiStreamService, StreamCollector, StreamConfig, StreamOutput, WindowTracker,
};
use metatelescope::types::{Asn, Day, Ipv4, Prefix, PrefixTrie, SimDuration};
use metatelescope::wire::ipfix::{self, IpfixFlow};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

/// Every case runs at each of these lane counts.
const LANES: [usize; 3] = [1, 2, 4];

/// How long one run may take before the case fails instead of hanging.
const DEADLINE: Duration = Duration::from_secs(60);

fn arb_addr() -> impl Strategy<Value = Ipv4> {
    any::<u32>().prop_map(Ipv4)
}

/// mt-wire's `arb_flow`: every field over its whole domain.
fn arb_flow() -> impl Strategy<Value = IpfixFlow> {
    (
        arb_addr(),
        arb_addr(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        0u8..=0x3f,
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(src, dst, src_port, dst_port, protocol, tcp_flags, packets, octets, start_secs)| {
                IpfixFlow {
                    src,
                    dst,
                    src_port,
                    dst_port,
                    protocol,
                    tcp_flags,
                    packets,
                    octets,
                    start_secs,
                }
            },
        )
}

/// Routes half the address space and a quarter more, so random
/// destinations reach every funnel stage.
fn rib(_: Day) -> PrefixTrie<Asn> {
    [("0.0.0.0/1", 64_500), ("128.0.0.0/2", 64_501)]
        .into_iter()
        .map(|(p, asn)| (p.parse::<Prefix>().unwrap(), Asn(asn)))
        .collect()
}

/// One exporter's bytes, pinned to one lane and one transport.
struct Feed {
    exporter: String,
    lane: usize,
    datagrams: bool,
    pieces: Vec<Vec<u8>>,
    /// Pieces per turn: one stream chunk, or a run of this many
    /// datagrams pushed as one batch.
    run: usize,
}

/// Cuts `bytes` into stream chunks of `size` bytes.
fn chunks(bytes: &[u8], size: usize) -> Vec<Vec<u8>> {
    bytes.chunks(size).map(<[u8]>::to_vec).collect()
}

/// The turns in driving order: the feeds take turns, one turn's
/// pieces each.
fn interleave(feeds: &[Feed]) -> Vec<(&Feed, &[Vec<u8>])> {
    let turns: Vec<Vec<&[Vec<u8>]>> = feeds
        .iter()
        .map(|f| f.pieces.chunks(f.run).collect())
        .collect();
    let rounds = turns.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|t| {
            feeds
                .iter()
                .zip(&turns)
                .filter_map(move |(f, turns)| turns.get(t).map(|&pieces| (f, pieces)))
        })
        .collect()
}

/// Streams `feeds` through a `lanes`-lane service and finishes it, on
/// a thread of its own: `None` if it did not return in time, `Err` if
/// it panicked.
fn run(cfg: &StreamConfig, lanes: usize, feeds: Vec<Feed>) -> Option<Result<StreamOutput, ()>> {
    let cfg = cfg.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (svc, mut producers) = MultiStreamService::start(cfg, lanes, rib);
        for (feed, pieces) in interleave(&feeds) {
            let lane = &mut producers[feed.lane];
            if feed.datagrams {
                lane.push_datagrams(&feed.exporter, pieces);
            } else {
                for piece in pieces {
                    lane.push_chunk(&feed.exporter, piece);
                }
            }
        }
        let _ = tx.send(svc.finish(producers));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => Some(Ok(out)),
        Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(())),
        Err(mpsc::RecvTimeoutError::Timeout) => None,
    }
}

/// The gate's view of `feeds`: per-lane collectors decode every piece
/// in driving order, and one tracker gates the records. Returns the
/// accepted records per day, the decoded count, and the tracker.
fn oracle(
    cfg: &StreamConfig,
    lanes: usize,
    feeds: &[Feed],
) -> (BTreeMap<Day, Vec<FlowRecord>>, u64, WindowTracker) {
    let mut collectors: Vec<StreamCollector> = (0..lanes).map(|_| StreamCollector::new()).collect();
    let mut tracker = WindowTracker::new(cfg.allowed_lateness);
    let mut accepted: BTreeMap<Day, Vec<FlowRecord>> = BTreeMap::new();
    let mut decoded = 0;
    for (feed, piece) in interleave(feeds)
        .into_iter()
        .flat_map(|(f, ps)| ps.iter().map(move |p| (f, p)))
    {
        let mut out = Vec::new();
        let collector = &mut collectors[feed.lane];
        if feed.datagrams {
            collector.feed_datagram_into(&feed.exporter, piece, &mut out);
        } else {
            collector.feed_into(&feed.exporter, piece, &mut out);
        }
        decoded += out.len() as u64;
        for f in &out {
            let r = FlowRecord::from_ipfix(f);
            if let Gate::Accept { day, .. } = tracker.observe(r.start) {
                accepted.entry(day).or_default().push(r);
            }
        }
    }
    (accepted, decoded, tracker)
}

fn assert_results_equal(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.dark, b.dark, "{what}: dark");
    assert_eq!(a.unclean, b.unclean, "{what}: unclean");
    assert_eq!(a.gray, b.gray, "{what}: gray");
    assert_eq!(a.funnel, b.funnel, "{what}: funnel");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_exporter_bytes_finish_and_match_batch(
        flows in proptest::collection::vec(arb_flow(), 1..20),
        copies in 1usize..=3,
        per_message in 1usize..=16,
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
        truncate_by in 0usize..40,
        extend_by in 0usize..20,
        soup in proptest::collection::vec(any::<u8>(), 0..200),
        chunk in 1usize..=300,
        run_len in 1usize..=5,
        transports in any::<u8>(),
        three_days in any::<bool>(),
        lateness_hours in 0u64..=48,
    ) {
        let flows: Vec<IpfixFlow> = flows
            .into_iter()
            .map(|f| IpfixFlow {
                start_secs: if three_days { f.start_secs % (3 * 86_400) } else { f.start_secs },
                ..f
            })
            .collect();
        let export: Vec<IpfixFlow> = flows.iter().cycle().take(flows.len() * copies).copied().collect();
        let messages = ipfix::encode_messages(&export, 7, 3, &mut 0, per_message);
        // mt-wire's mutation: flip bytes, tear the tail, append garbage.
        let mut mutated = messages.concat();
        for (pos, val) in &mutations {
            let idx = *pos as usize % mutated.len();
            mutated[idx] ^= *val;
        }
        mutated.truncate(mutated.len().saturating_sub(truncate_by));
        mutated.extend(std::iter::repeat_n(0xAAu8, extend_by));
        // As datagrams, the mutated bytes keep the clean messages' cuts.
        let mut mutated_datagrams = Vec::new();
        let mut rest = mutated.as_slice();
        for m in &messages {
            let (head, tail) = rest.split_at(m.len().min(rest.len()));
            mutated_datagrams.push(head.to_vec());
            rest = tail;
        }
        mutated_datagrams.last_mut().unwrap().extend_from_slice(rest);
        let cfg = StreamConfig {
            allowed_lateness: SimDuration::hours(lateness_hours),
            ..StreamConfig::default()
        };
        let engine = PipelineEngine::standard();
        for lanes in LANES {
            let what = format!("{lanes} lanes");
            let datagrams = |k: usize| transports & (1 << k) != 0;
            let feeds: Vec<Feed> = [
                ("clean", messages.clone(), messages.concat()),
                ("mutated", mutated_datagrams.clone(), mutated.clone()),
                ("soup", vec![soup.clone()], soup.clone()),
            ]
            .into_iter()
            .enumerate()
            .map(|(k, (name, as_datagrams, stream))| Feed {
                exporter: name.to_owned(),
                lane: k % lanes,
                datagrams: datagrams(k),
                pieces: if datagrams(k) { as_datagrams } else { chunks(&stream, chunk) },
                run: if datagrams(k) { run_len } else { 1 },
            })
            .collect();
            let (accepted, decoded, tracker) = oracle(&cfg, lanes, &feeds);
            let out = match run(&cfg, lanes, feeds) {
                Some(Ok(out)) => out,
                Some(Err(())) => panic!("{what}: the run panicked"),
                None => panic!("{what}: the run did not finish within {DEADLINE:?}"),
            };
            let h = &out.health;
            h.check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
            prop_assert_eq!(h.decoded, decoded, "{}: decoded", what);
            prop_assert_eq!(
                (h.on_time, h.late, h.dropped_late),
                (tracker.on_time, tracker.late, tracker.dropped),
                "{}: gate counts", what
            );
            prop_assert_eq!(h.in_flight + h.dropped_backpressure + h.rejected_closed, 0, "{}", what);
            let days: Vec<Day> = out.windows.iter().map(|w| w.day).collect();
            prop_assert_eq!(days, accepted.keys().copied().collect::<Vec<_>>(), "{}: windows", what);
            for (w, records) in out.windows.iter().zip(accepted.values()) {
                let what = format!("{what}, day {}", w.day.0);
                prop_assert_eq!(w.records, records.len() as u64, "{}: records", what);
                let stats = ShardedTrafficStats::from_records(DEFAULT_SHARDS, records);
                let batch = engine.run_sharded(&stats, &rib(w.day), cfg.sampling_rate, 1, &cfg.pipeline, 2);
                assert_results_equal(&w.result, &batch, &what);
            }
        }
    }
}
