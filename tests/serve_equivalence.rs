//! Socket/batch equivalence: the same generated traffic delivered to
//! the `mt-serve` daemon over real loopback sockets (UDP datagrams and
//! TCP streams, mixed) must produce per-window and combined pipeline
//! results bit-identical to a batch `run_sharded` over the same
//! records. The event loop, the wire round-trip, and the kernel in the
//! middle must all be invisible to the verdicts — at every event-loop
//! count: the run is repeated with 1, 2, and 4 `SO_REUSEPORT`-sharded
//! ingest loops and pinned against the same batch reference.

use metatelescope::core::combine;
use metatelescope::core::pipeline::{PipelineConfig, PipelineResult};
use metatelescope::core::PipelineEngine;
use metatelescope::flow::sharded::DEFAULT_SHARDS;
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::{FlowRecord, ShardedTrafficStats};
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::serve::replay::await_decoded;
use metatelescope::serve::{Daemon, ServeConfig};
use metatelescope::stream::{OverflowPolicy, StreamConfig, StreamOutput};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Day, SimDuration};
use metatelescope::wire::ipfix;
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;

const DAYS: u32 = 3;
const LOOP_COUNTS: [usize; 3] = [1, 2, 4];

fn assert_results_equal(a: &PipelineResult, b: &PipelineResult, what: &str) {
    assert_eq!(a.dark, b.dark, "{what}: dark sets differ");
    assert_eq!(a.unclean, b.unclean, "{what}: unclean sets differ");
    assert_eq!(a.gray, b.gray, "{what}: gray sets differ");
    assert_eq!(a.funnel, b.funnel, "{what}: funnels differ");
}

/// Delivers the pre-generated days over real sockets to a daemon with
/// `loops` ingest event loops and returns its quiescent output.
fn socket_run(
    days: &[Vec<(String, Vec<FlowRecord>)>],
    net: &Arc<Internet>,
    rate: u32,
    loops: usize,
) -> StreamOutput {
    let rib_net = Arc::clone(net);
    let daemon = Daemon::bind(
        ServeConfig {
            event_loops: loops,
            stream: StreamConfig {
                ingest_threads: 2,
                sampling_rate: rate,
                overflow: OverflowPolicy::Block,
                allowed_lateness: SimDuration::hours(2),
                ..StreamConfig::default()
            },
            ..ServeConfig::default()
        },
        move |day| rib_net.rib(day),
    )
    .expect("bind daemon");
    assert_eq!(daemon.event_loops(), loops, "requested loop count sticks");
    let udp_to = daemon.udp_addr().expect("udp on");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    // Exporters alternate transports and keep one socket for the whole
    // run, so each exporter's traffic lands on one kernel-chosen event
    // loop (UDP: stable 4-tuple hash; TCP: pinned to the accepting
    // loop); days go out day-major with a decode barrier between days
    // so the watermark never closes a window with records still in a
    // kernel buffer (a real fleet is paced by wall-clock days).
    let mut transports: HashMap<String, Result<UdpSocket, TcpStream>> = HashMap::new();
    let mut sequences: HashMap<String, u32> = HashMap::new();
    let mut sent = 0u64;
    for (d, per_vp) in days.iter().enumerate() {
        for (i, (code, records)) in per_vp.iter().enumerate() {
            let flows: Vec<ipfix::IpfixFlow> = records.iter().map(FlowRecord::to_ipfix).collect();
            let seq = sequences.entry(code.clone()).or_insert(0);
            let messages = ipfix::encode_messages(&flows, d as u32 * 86_400, i as u32, seq, 64);
            let transport = transports.entry(code.clone()).or_insert_with(|| {
                if i % 2 == 0 {
                    Ok(UdpSocket::bind(("127.0.0.1", 0)).expect("bind exporter"))
                } else {
                    Err(TcpStream::connect(tcp_to).expect("connect exporter"))
                }
            });
            match transport {
                Ok(sock) => {
                    for msg in &messages {
                        sock.send_to(msg, udp_to).expect("send datagram");
                    }
                }
                Err(sock) => {
                    for msg in &messages {
                        sock.write_all(msg).expect("send stream");
                    }
                }
            }
            sent += records.len() as u64;
        }
        await_decoded(http, sent).expect("decoded");
    }
    for transport in transports.values_mut() {
        if let Err(sock) = transport {
            sock.shutdown(std::net::Shutdown::Write)
                .expect("close write half");
        }
    }
    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.event_loops, loops);
    out.stream
}

#[test]
fn socket_delivery_matches_batch_bit_for_bit_at_every_loop_count() {
    let net = Arc::new(Internet::generate(InternetConfig::small(), 23));
    let cfg = TrafficConfig::test_profile();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let rate = net.vantage_points[0].sampling_rate;

    // Three days of per-exporter records, generated up front so the
    // batch reference and every socket run see identical inputs.
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
    let total: u64 = days
        .iter()
        .flat_map(|per_vp| per_vp.iter().map(|(_, r)| r.len() as u64))
        .sum();

    // The batch reference, computed once: per-day window results and
    // the multi-day combination.
    let mut merged: Option<ShardedTrafficStats> = None;
    let mut batch_windows = Vec::new();
    for (d, per_vp) in days.iter().enumerate() {
        let records: Vec<FlowRecord> = per_vp.iter().flat_map(|(_, r)| r.iter().copied()).collect();
        let stats = ShardedTrafficStats::from_records(DEFAULT_SHARDS, &records);
        let batch = PipelineEngine::standard().run_sharded(
            &stats,
            &net.rib(Day(d as u32)),
            rate,
            1,
            &PipelineConfig::default(),
            2,
        );
        batch_windows.push((records.len() as u64, batch));
        match &mut merged {
            None => merged = Some(stats),
            Some(m) => m.merge(&stats),
        }
    }
    let batch_combined = PipelineEngine::standard().run_sharded(
        merged.as_ref().expect("at least one day"),
        &combine::rib_union(&net, Day(0), DAYS),
        rate,
        DAYS,
        &PipelineConfig::default(),
        2,
    );

    for loops in LOOP_COUNTS {
        let out = socket_run(&days, &net, rate, loops);

        assert_eq!(
            out.health.decoded, total,
            "every record crossed the wire at {loops} loops"
        );
        assert_eq!(out.health.dropped_late, 0, "{loops} loops");
        assert_eq!(out.health.dropped_backpressure, 0, "{loops} loops");
        for e in &out.health.exporters {
            assert_eq!(
                e.decode_errors, 0,
                "clean transport for {} at {loops} loops",
                e.name
            );
        }
        out.health.check_invariants().expect("final ledger");

        // Every window equals the batch run over that day's records,
        // and the final combined result equals the batch multi-day
        // combination — no matter how many loops split the sockets.
        assert_eq!(out.windows.len(), DAYS as usize);
        for (d, w) in out.windows.iter().enumerate() {
            assert_eq!(w.day, Day(d as u32), "windows close in day order");
            let (n_records, batch) = &batch_windows[d];
            assert_eq!(w.records, *n_records, "{loops} loops");
            assert_results_equal(
                &w.result,
                batch,
                &format!("day {d} window over sockets at {loops} loops"),
            );
        }
        let fin = out.combined.last().expect("combined result");
        assert_eq!((fin.first, fin.days), (Day(0), DAYS));
        assert_results_equal(
            &fin.result,
            &batch_combined,
            &format!("combined over sockets at {loops} loops"),
        );
    }
}
