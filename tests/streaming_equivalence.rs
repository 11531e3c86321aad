//! End-to-end streaming/batch equivalence: seven simulated days of
//! vantage-point traffic, exported as per-exporter IPFIX byte streams
//! and fed through the `mt-stream` stack, must produce per-window and
//! combined pipeline results bit-identical to batch `run_sharded` over
//! the same records — including when each day's records arrive shuffled
//! (out of order within the allowed lateness) — under a strict and an
//! estimated spoofing tolerance alike.

use metatelescope::core::combine;
use metatelescope::core::pipeline::{PipelineConfig, PipelineResult};
use metatelescope::core::{PipelineEngine, SpoofRule};
use metatelescope::flow::sharded::DEFAULT_SHARDS;
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::{FlowRecord, ShardedTrafficStats};
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::stream::{MultiStreamService, OverflowPolicy, StreamConfig, StreamOutput};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Day, SimDuration};
use metatelescope::wire::ipfix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

const DAYS: u32 = 7;
const CHUNK: usize = 1460;

/// The generated scenario, shared by every test in this file: the world
/// plus seven days of per-exporter sampled records.
struct Fixture {
    net: Internet,
    /// `days[d]` = per-exporter `(code, records)` for `Day(d)`.
    days: Vec<Vec<(String, Vec<FlowRecord>)>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = Internet::generate(InternetConfig::small(), 11);
        let cfg = TrafficConfig::test_profile();
        let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
        let days = (0..DAYS)
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
        Fixture { net, days }
    })
}

fn sampling_rate(net: &Internet) -> u32 {
    net.vantage_points[0].sampling_rate
}

fn pipeline_config(rule: &SpoofRule) -> PipelineConfig {
    PipelineConfig {
        spoof_tolerance: rule.clone(),
        ..PipelineConfig::default()
    }
}

/// Streams the given per-day per-exporter record sets through a
/// `lanes`-lane `MultiStreamService` judging by `rule`, interleaving
/// exporters in transport-sized chunks. Exporters are pinned to lanes
/// round-robin and one thread drives every lane, so the gate sequence
/// is the same at any lane count.
fn stream(
    net: &Internet,
    days: &[Vec<(String, Vec<FlowRecord>)>],
    lanes: usize,
    ingest_threads: usize,
    rule: &SpoofRule,
) -> StreamOutput {
    let (svc, mut producers) = MultiStreamService::start(
        StreamConfig {
            ingest_threads,
            sampling_rate: sampling_rate(net),
            overflow: OverflowPolicy::Block,
            allowed_lateness: SimDuration::hours(2),
            pipeline: pipeline_config(rule),
            ..StreamConfig::default()
        },
        lanes,
        |day| net.rib(day),
    );
    let mut sequences: HashMap<String, u32> = HashMap::new();
    for (d, per_vp) in days.iter().enumerate() {
        let streams: Vec<(&str, Vec<u8>)> = per_vp
            .iter()
            .map(|(code, records)| {
                let flows: Vec<ipfix::IpfixFlow> =
                    records.iter().map(FlowRecord::to_ipfix).collect();
                let seq = sequences.entry(code.clone()).or_insert(0);
                let bytes = ipfix::encode_messages(&flows, d as u32 * 86_400, 1, seq, 64)
                    .into_iter()
                    .flatten()
                    .collect();
                (code.as_str(), bytes)
            })
            .collect();
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut progressed = false;
            for (i, (code, bytes)) in streams.iter().enumerate() {
                if cursors[i] < bytes.len() {
                    let end = (cursors[i] + CHUNK).min(bytes.len());
                    producers[i % lanes].push_chunk(code, &bytes[cursors[i]..end]);
                    cursors[i] = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
    svc.finish(producers)
}

fn assert_results_equal(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.dark, b.dark, "{what}: dark sets differ");
    assert_eq!(a.unclean, b.unclean, "{what}: unclean sets differ");
    assert_eq!(a.gray, b.gray, "{what}: gray sets differ");
    assert_eq!(a.funnel, b.funnel, "{what}: funnels differ");
    assert_eq!(
        a.spoof_tolerance, b.spoof_tolerance,
        "{what}: spoofing tolerances differ"
    );
}

/// Batch reference for one day: plain ingest of the day's records and
/// one sharded pipeline run against the day's RIB.
fn batch_window(
    net: &Internet,
    day: Day,
    records: &[FlowRecord],
    rule: &SpoofRule,
) -> PipelineResult {
    let stats = ShardedTrafficStats::from_records(DEFAULT_SHARDS, records);
    PipelineEngine::standard().run_sharded(
        &stats,
        &net.rib(day),
        sampling_rate(net),
        1,
        &pipeline_config(rule),
        2,
    )
}

#[test]
fn seven_day_stream_matches_batch() {
    let unrouted = SpoofRule::Unrouted(fixture().net.unrouted_octets().to_vec());
    assert_eq!(unrouted, SpoofRule::Unrouted(vec![37, 53]));
    for rule in [SpoofRule::Fixed(0), unrouted] {
        for lanes in [1, 2, 4] {
            seven_day_stream_matches_batch_at(lanes, &rule);
        }
    }
}

fn seven_day_stream_matches_batch_at(lanes: usize, rule: &SpoofRule) {
    let fx = fixture();
    let out = stream(&fx.net, &fx.days, lanes, 3, rule);

    assert_eq!(out.windows.len(), DAYS as usize);
    assert_eq!(out.health.dropped_late, 0, "in-order arrival drops nothing");
    assert_eq!(
        out.health.dropped_backpressure, 0,
        "Block policy sheds nothing"
    );
    for e in &out.health.exporters {
        assert_eq!(e.decode_errors, 0, "clean streams for {}", e.name);
    }

    // Every window equals a batch run over that day's records.
    let mut merged: Option<ShardedTrafficStats> = None;
    for (d, w) in out.windows.iter().enumerate() {
        assert_eq!(w.day, Day(d as u32), "windows close in day order");
        let records: Vec<FlowRecord> = fx.days[d]
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        assert_eq!(w.records, records.len() as u64);
        let batch = batch_window(&fx.net, w.day, &records, rule);
        assert_results_equal(
            &w.result,
            &batch,
            &format!("{rule:?} lanes={lanes} day {d} window"),
        );

        let stats = ShardedTrafficStats::from_records(DEFAULT_SHARDS, &records);
        match &mut merged {
            None => merged = Some(stats),
            Some(m) => m.merge(&stats),
        }
    }

    // The final combined result equals the batch multi-day combination.
    let batch_combined = PipelineEngine::standard().run_sharded(
        merged.as_ref().unwrap(),
        &combine::rib_union(&fx.net, Day(0), DAYS),
        sampling_rate(&fx.net),
        DAYS,
        &pipeline_config(rule),
        2,
    );
    let fin = out.combined.last().unwrap();
    assert_eq!(fin.first, Day(0));
    assert_eq!(fin.days, DAYS);
    assert_results_equal(
        &fin.result,
        &batch_combined,
        &format!("{rule:?} lanes={lanes} 7-day combined"),
    );

    // The unified health document ties the whole run together. After a
    // quiescent finish every decoded record is accounted for exactly
    // once, and nothing is still in flight.
    out.health.check_invariants().expect("health invariants");
    assert_eq!(out.health.in_flight, 0, "finish drained the queue");
    assert_eq!(out.health.ingested, out.health.on_time + out.health.late);
    assert_eq!(
        out.health.decoded,
        out.health.ingested + out.health.dropped_late,
        "decoded = ingested + dropped (nothing shed or rejected here)"
    );

    // And the registry mirrors the funnels: summing every run's
    // funnel (one per window close, one per combined refresh) must give
    // exactly the mt_pipeline_* counters the engine published.
    let snap = out.registry.snapshot();
    let runs = (out.windows.len() + out.combined.len()) as u64;
    assert_eq!(snap.scalar("mt_pipeline_runs_total", &[]), Some(runs));
    let mut entered: HashMap<String, u64> = HashMap::new();
    let mut kept: HashMap<String, u64> = HashMap::new();
    let funnels = out
        .windows
        .iter()
        .map(|w| &w.result.funnel)
        .chain(out.combined.iter().map(|c| &c.result.funnel));
    for funnel in funnels {
        for s in funnel.stages() {
            *entered.entry(s.name.to_owned()).or_insert(0) += s.entered;
            *kept.entry(s.name.to_owned()).or_insert(0) += s.kept;
        }
    }
    for (stage, want) in &entered {
        assert_eq!(
            snap.scalar("mt_pipeline_stage_entered_total", &[("stage", stage)]),
            Some(*want),
            "registry entered counter for stage {stage} matches batch funnels"
        );
    }
    for (stage, want) in &kept {
        assert_eq!(
            snap.scalar("mt_pipeline_stage_kept_total", &[("stage", stage)]),
            Some(*want),
            "registry kept counter for stage {stage} matches batch funnels"
        );
    }
}

#[test]
fn shuffled_arrival_within_lateness_matches_batch() {
    let fx = fixture();
    let mut rng = StdRng::seed_from_u64(97);

    // Shuffle each exporter's records within each day (Fisher–Yates):
    // arrival order scrambles, event times stay in the day, so every
    // record lands inside the allowed lateness of a still-open window.
    let days: Vec<Vec<(String, Vec<FlowRecord>)>> = fx
        .days
        .iter()
        .map(|per_vp| {
            per_vp
                .iter()
                .map(|(code, records)| {
                    let mut shuffled = records.clone();
                    for i in (1..shuffled.len()).rev() {
                        let j = rng.random_range(0..i + 1);
                        shuffled.swap(i, j);
                    }
                    (code.clone(), shuffled)
                })
                .collect()
        })
        .collect();

    let out = stream(&fx.net, &days, 1, 2, &SpoofRule::default());
    assert!(
        out.health.late > 0,
        "shuffling produced out-of-order records"
    );
    assert_eq!(out.health.dropped_late, 0, "all inside the lateness bound");

    assert_eq!(out.windows.len(), DAYS as usize);
    for (d, w) in out.windows.iter().enumerate() {
        let records: Vec<FlowRecord> = fx.days[d]
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        assert_eq!(w.records, records.len() as u64, "day {d} lost nothing");
        let batch = batch_window(&fx.net, w.day, &records, &SpoofRule::default());
        assert_results_equal(&w.result, &batch, &format!("shuffled day {d}"));
    }
}

#[test]
fn straggler_past_lateness_is_dropped_not_misfiled() {
    let fx = fixture();
    let out_clean = stream(&fx.net, &fx.days[..2], 1, 2, &SpoofRule::default());

    // Re-run with a day-0 record appended to the *day-1* stream of the
    // first exporter: by then day 0's window has closed, so the record
    // must be dropped and counted — never folded into day 1.
    let mut days: Vec<Vec<(String, Vec<FlowRecord>)>> = fx.days[..2].to_vec();
    let straggler = days[0][0].1[0];
    let code = days[0][0].0.clone();
    days[1]
        .iter_mut()
        .find(|(c, _)| *c == code)
        .expect("exporter present on both days")
        .1
        .push(straggler);

    let out = stream(&fx.net, &days, 1, 2, &SpoofRule::default());
    assert_eq!(out.health.dropped_late, 1, "the straggler was dropped");
    out.health.check_invariants().expect("health invariants");
    assert_eq!(
        out.windows[1].records, out_clean.windows[1].records,
        "day 1's window did not absorb the stray day-0 record"
    );
    assert_results_equal(
        &out.windows[1].result,
        &out_clean.windows[1].result,
        "day 1 with straggler",
    );
}
