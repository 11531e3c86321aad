//! Daemon integration: real sockets on loopback, UDP + TCP ingest, the
//! HTTP endpoints, and the graceful-drain accounting identities.

use mt_core::SpoofRule;
use mt_serve::replay::{self, await_decoded, http_get, http_request, Workload};
use mt_serve::{Daemon, ServeConfig, ServeOutput};
use mt_store::{StoreConfig, SummaryData, Verdicts};
use mt_stream::{ExporterCounters, HealthSnapshot, StreamConfig};
use mt_types::{Day, Ipv4, RibIndex, SimDuration, Slot24Index};
use mt_wire::ipfix;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn serve_config(lateness: SimDuration) -> ServeConfig {
    ServeConfig {
        stream: StreamConfig {
            ingest_threads: 2,
            allowed_lateness: lateness,
            ..StreamConfig::default()
        },
        ..ServeConfig::default()
    }
}

#[test]
fn udp_and_tcp_ingest_match_and_drain_cleanly() {
    // A fleet, not a pair: 32 UDP peers and 32 TCP streams held open
    // side by side, so each loop juggles many live connections.
    let w = Workload {
        exporters: 64,
        days: 3,
        flows_per_exporter_day: 50,
        seed: 0xC0FFEE,
    };
    let daemon = Daemon::bind(serve_config(SimDuration::hours(2)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let udp_to = daemon.udp_addr().expect("udp on");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    // Even exporters speak UDP (one stable source socket each, so each
    // keeps one session); odd exporters hold one TCP stream open for
    // the whole run. Days go out day-major, like a real fleet: every
    // exporter finishes day `d` before anyone starts day `d+1`, so the
    // 2h-lateness watermark never guillotines a slower peer.
    let udp_socks: Vec<UdpSocket> = (0..w.exporters / 2)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender"))
        .collect();
    let mut tcp_socks: Vec<TcpStream> = (0..w.exporters / 2)
        .map(|_| TcpStream::connect(tcp_to).expect("connect exporter"))
        .collect();
    let mut seqs = vec![0u32; w.exporters];
    let mut datagrams_sent = 0u64;
    let per_day = w.total_flows() / u64::from(w.days);
    for d in 0..w.days {
        for e in 0..w.exporters {
            let msgs = w.encode_day(e, Day(d), &mut seqs[e], 25);
            if e % 2 == 0 {
                for msg in &msgs {
                    udp_socks[e / 2]
                        .send_to(msg, udp_to)
                        .expect("send datagram");
                    datagrams_sent += 1;
                }
            } else {
                for msg in &msgs {
                    tcp_socks[e / 2].write_all(msg).expect("send stream");
                }
            }
        }
        // Let the day fully land before the fleet moves on — otherwise
        // a fast TCP stream's day d+1 can advance the watermark past a
        // UDP peer's still-queued day-d datagrams.
        await_decoded(http, per_day * u64::from(d + 1)).expect("decoded");
    }
    for sock in &mut tcp_socks {
        sock.shutdown(std::net::Shutdown::Write)
            .expect("close write half");
    }

    let live = await_decoded(http, w.total_flows()).expect("decoded");
    live.check_invariants().expect("live health invariants");

    // The exposition endpoint is scrape-clean and carries both the
    // daemon's own metrics and the stream layer's.
    let (status, body) = http_get(http, "/metrics").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 200 OK"),
        "metrics status: {status}"
    );
    assert!(body.ends_with('\n'), "exposition ends with a newline");
    assert!(body.contains("# TYPE mt_serve_datagrams_total counter"));
    assert!(body.contains("# TYPE mt_serve_ingest_nanoseconds histogram"));
    assert!(body.contains("mt_serve_connections_total{transport=\"tcp\"}"));
    assert!(body.contains("mt_stream_flows_total"));

    handle.shutdown();
    let out = runner.join().expect("join").expect("run");

    // Everything sent arrived, nothing was rejected, and the post-drain
    // ledger balances exactly.
    assert_eq!(out.datagrams, datagrams_sent);
    assert_eq!(out.datagrams_rejected, 0);
    assert_eq!(out.tcp_connections, (w.exporters / 2) as u64);
    assert!(out.http_requests >= 2);
    assert_eq!(out.stream.health.decoded, w.total_flows());
    assert_eq!(out.stream.health.in_flight, 0, "drain left nothing queued");
    assert_eq!(out.stream.health.dropped_late, 0);
    assert_eq!(out.stream.health.dropped_backpressure, 0);
    out.stream.health.check_invariants().expect("final ledger");

    // Both transports fed the same sessions path: every exporter shows
    // up, named by transport, with clean decodes.
    assert_eq!(out.stream.health.exporters.len(), w.exporters);
    for e in &out.stream.health.exporters {
        assert!(
            e.name.starts_with("udp:") || e.name.starts_with("tcp:"),
            "session named by transport: {}",
            e.name
        );
        assert_eq!(e.decode_errors, 0, "clean stream for {}", e.name);
        assert_eq!(e.flows, w.total_flows() / w.exporters as u64);
    }

    // All days closed, all records windowed.
    assert_eq!(out.stream.windows.len(), w.days as usize);
    let windowed: u64 = out.stream.windows.iter().map(|w| w.records).sum();
    assert_eq!(windowed, w.total_flows());
}

/// The one exporter of `h` whose session is the UDP peer `peer`.
fn udp_exporter<'a>(h: &'a HealthSnapshot, peer: &UdpSocket) -> &'a ExporterCounters {
    let name = format!("udp:{}", peer.local_addr().expect("sender addr"));
    h.exporters
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no session {name}"))
}

#[test]
fn torn_datagrams_are_rejected_without_desync() {
    let w = Workload {
        exporters: 2,
        days: 1,
        flows_per_exporter_day: 60,
        seed: 9,
    };
    // One loop, and every datagram queued before it runs: its first
    // wake drains them all, so the two peers' datagrams interleave
    // inside one wake and each change of peer ends a run.
    let cfg = ServeConfig {
        event_loops: 1,
        ..serve_config(SimDuration::hours(2))
    };
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let udp_to = daemon.udp_addr().expect("udp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");

    let mut seq = [0, 0];
    let a_msgs = w.encode_day(0, Day(0), &mut seq[0], 20);
    let b_msgs = w.encode_day(1, Day(0), &mut seq[1], 20);
    assert_eq!((a_msgs.len(), b_msgs.len()), (3, 3));
    let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    let b = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    // A good, B good, A torn (truncated mid-record), B good, A
    // garbage-tailed, A good: A's two bad datagrams must drop whole,
    // mid-run or not, while both sessions keep decoding.
    let torn = &a_msgs[1][..a_msgs[1].len() - 7];
    let mut tailed = a_msgs[1].clone();
    tailed.extend_from_slice(b"junk");
    let sends: [(&UdpSocket, &[u8]); 6] = [
        (&a, &a_msgs[0]),
        (&b, &b_msgs[0]),
        (&a, torn),
        (&b, &b_msgs[1]),
        (&a, &tailed),
        (&a, &a_msgs[2]),
    ];
    for (sock, datagram) in sends {
        sock.send_to(datagram, udp_to).expect("send");
    }
    let runner = std::thread::spawn(move || daemon.run());

    let live = await_decoded(http, 80).expect("decoded");
    assert_eq!(live.decoded, 80, "only the four clean datagrams count");

    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.datagrams, 6);
    assert_eq!(out.datagrams_rejected, 2);
    let h = &out.stream.health;
    assert_eq!(h.exporters.len(), 2);
    let (ea, eb) = (udp_exporter(h, &a), udp_exporter(h, &b));
    assert_eq!((ea.flows, ea.decode_errors), (40, 2), "A");
    assert_eq!((eb.flows, eb.decode_errors), (40, 0), "B");
    h.check_invariants().expect("final ledger");
}

#[test]
fn a_max_size_datagram_mid_run_is_received_whole() {
    // The largest IPv4 UDP payload, queued behind a small datagram from
    // the same peer, so it arrives second in the run: its `recv_from`
    // must still get room for all of it. One data set of the most
    // records a message holds, padded (RFC 7011 §3.3.1) to the limit.
    const MAX_DATAGRAM: usize = 65_507;
    let w = Workload {
        exporters: 1,
        days: 1,
        flows_per_exporter_day: ipfix::MAX_RECORDS_PER_MESSAGE + 6,
        seed: 0xB16,
    };
    let msgs = w.encode_day(0, Day(0), &mut 0, ipfix::MAX_RECORDS_PER_MESSAGE);
    let (mut big, small) = (msgs[0].clone(), msgs[1].clone());
    let pad = MAX_DATAGRAM - big.len();
    big.resize(MAX_DATAGRAM, 0);
    // The message's length field, and the data set's: past the header
    // and the template set (set header, template header, fields).
    let data_set_len_at = 16 + (4 + 4 + ipfix::FLOW_FIELDS.len() * 4) + 2;
    for at in [2, data_set_len_at] {
        let len = u16::from_be_bytes([big[at], big[at + 1]]) + pad as u16;
        big[at..at + 2].copy_from_slice(&len.to_be_bytes());
    }
    assert_eq!(u16::from_be_bytes([big[2], big[3]]) as usize, MAX_DATAGRAM);

    // Ten days of lateness: the small datagram's records end the day,
    // and the big one's must not count as late-dropped behind them.
    let cfg = ServeConfig {
        event_loops: 1,
        ..serve_config(SimDuration::days(10))
    };
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let udp_to = daemon.udp_addr().expect("udp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let sock = UdpSocket::bind(("127.0.0.1", 0)).expect("bind sender");
    sock.send_to(&small, udp_to).expect("send small");
    assert_eq!(sock.send_to(&big, udp_to).expect("send big"), MAX_DATAGRAM);
    let runner = std::thread::spawn(move || daemon.run());

    await_decoded(http, w.total_flows()).expect("decoded");
    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.datagrams, 2);
    assert_eq!(out.datagrams_rejected, 0, "neither datagram was truncated");
    let e = udp_exporter(&out.stream.health, &sock);
    assert_eq!(
        e.bytes,
        (small.len() + MAX_DATAGRAM) as u64,
        "received whole"
    );
    assert_eq!((e.flows, e.decode_errors), (w.total_flows(), 0));
    out.stream.health.check_invariants().expect("final ledger");
}

#[test]
fn http_endpoints_reject_what_they_should() {
    let daemon = Daemon::bind(serve_config(SimDuration::hours(2)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    let (status, _) = http_get(http, "/nope").expect("get");
    assert!(status.starts_with("HTTP/1.1 404"), "unknown path: {status}");
    let (status, _) =
        http_request(http, b"POST /health HTTP/1.1\r\nHost: t\r\n\r\n").expect("request");
    assert!(status.starts_with("HTTP/1.1 405"), "non-GET: {status}");
    let (status, _) = http_request(http, b" \r\n\r\n").expect("request");
    assert!(
        status.starts_with("HTTP/1.1 400"),
        "garbage request line: {status}"
    );
    let (status, body) = http_get(http, "/health").expect("get");
    assert!(status.starts_with("HTTP/1.1 200"), "health: {status}");
    let health: HealthSnapshot = serde_json::from_str(&body).expect("health json");
    assert_eq!(health.decoded, 0);

    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.http_requests, 4);
    assert_eq!(out.stream.windows.len(), 0, "no data, no windows");
}

#[test]
fn a_request_trickled_byte_by_byte_still_parses() {
    // Regression for the partial-buffer parse bug: a request line split
    // across many TCP reads must never be parsed from a partial buffer
    // (which used to yield a spurious 400) — the daemon waits for the
    // full head and then answers normally.
    let daemon = Daemon::bind(serve_config(SimDuration::hours(2)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    let raw = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut sock = TcpStream::connect(http).expect("connect http");
    for chunk in raw.chunks(1) {
        sock.write_all(chunk).expect("trickle byte");
        sock.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut response = Vec::new();
    sock.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("utf8 response");
    assert!(
        text.starts_with("HTTP/1.1 200 OK"),
        "trickled request must parse whole: {}",
        text.lines().next().unwrap_or_default()
    );
    let body = &text[text.find("\r\n\r\n").expect("header end") + 4..];
    let health: HealthSnapshot = serde_json::from_str(body).expect("health json");
    assert_eq!(health.decoded, 0);

    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.http_requests, 1);
}

#[test]
fn an_endless_request_line_is_rejected_with_431() {
    // Regression for the unbounded-buffer bug: a request line that
    // never ends must be answered 431 and closed once it crosses the
    // line bound, not buffered forever.
    let daemon = Daemon::bind(serve_config(SimDuration::hours(2)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    let mut sock = TcpStream::connect(http).expect("connect http");
    // Exactly the bound: the daemon consumes every byte sent (so the
    // close is a clean FIN, not a reset) and rejects the instant the
    // buffered line hits the limit with no terminator in sight.
    let line = vec![b'A'; mt_serve::http::MAX_REQUEST_LINE_BYTES];
    sock.write_all(&line).expect("send endless line");
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half close");
    let mut response = Vec::new();
    sock.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("utf8 response");
    assert!(
        text.starts_with("HTTP/1.1 431 "),
        "endless line must be 431: {}",
        text.lines().next().unwrap_or_default()
    );

    handle.shutdown();
    runner.join().expect("join").expect("run");
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    // ordering: a uniqueness counter; nothing is published through it.
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mt-serve-store-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

/// The slot index matching [`replay::default_rib`] (20.0.0.0/8).
fn default_slots() -> Arc<Slot24Index> {
    Arc::new(Slot24Index::build(&RibIndex::build(&replay::default_rib())))
}

#[test]
fn v1_endpoints_without_a_store_are_not_found() {
    let daemon = Daemon::bind(serve_config(SimDuration::hours(2)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    let (status, _) = http_get(http, "/v1/block/20.0.0.0").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 404"),
        "no store, no block API: {status}"
    );
    let (status, _) = http_get(http, "/v1/windows/0/verdicts").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 404"),
        "no store, no window API: {status}"
    );

    handle.shutdown();
    runner.join().expect("join").expect("run");
}

/// Binds a daemon over the store in `dir`, sends each stream over its
/// own TCP connection, waits until `decoded` records arrived, and
/// drains.
fn ingest_into_store(dir: &Path, streams: &[Vec<Vec<u8>>], decoded: u64) -> ServeOutput {
    let mut cfg = serve_config(SimDuration::days(10));
    cfg.store = Some(StoreConfig {
        dir: dir.to_path_buf(),
        slots: default_slots(),
    });
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());
    for messages in streams {
        replay::send_tcp(tcp_to, messages).expect("send stream");
    }
    await_decoded(http, decoded).expect("decoded");
    handle.shutdown();
    runner.join().expect("join").expect("run")
}

/// Each exporter's messages for `days`, one stream per exporter.
fn streams(w: &Workload, days: std::ops::Range<u32>) -> Vec<Vec<Vec<u8>>> {
    (0..w.exporters)
        .map(|e| {
            let mut seq = 0;
            days.clone()
                .flat_map(|d| w.encode_day(e, Day(d), &mut seq, 25))
                .collect()
        })
        .collect()
}

/// Cold-loads the store in `dir` and answers `/v1/block` for each
/// address.
fn block_bodies(dir: &Path, addrs: &[Ipv4]) -> Vec<String> {
    let mut cfg = serve_config(SimDuration::days(10));
    cfg.store = Some(StoreConfig {
        dir: dir.to_path_buf(),
        slots: default_slots(),
    });
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());
    let bodies = addrs
        .iter()
        .map(|a| http_get(http, &format!("/v1/block/{a}")).expect("get").1)
        .collect();
    handle.shutdown();
    runner.join().expect("join").expect("run");
    bodies
}

fn summary_verdicts(dir: &Path) -> Verdicts {
    SummaryData::decode(&std::fs::read(dir.join("summary.mts")).expect("summary"))
        .expect("decodes")
        .verdicts
}

#[test]
fn store_endpoints_serve_persisted_windows_across_a_restart() {
    let dir = temp_store_dir("e2e");
    let w = Workload {
        exporters: 2,
        days: 3,
        flows_per_exporter_day: 300,
        seed: 0x5709,
    };

    // First run: ingest the whole fleet, then drain. Every closed
    // window lands in the store via the scheduler sink.
    let out = ingest_into_store(&dir, &streams(&w, 0..w.days), w.total_flows());
    assert_eq!(out.stream.windows.len(), w.days as usize);

    // The store holds one file per closed day plus the summary.
    assert!(dir.join("summary.mts").exists(), "summary persisted");
    for d in 0..w.days {
        assert!(
            dir.join(format!("window-{d:05}.mtw")).exists(),
            "window file for day {d}"
        );
    }

    // Second run over the same directory: the query cache cold-loads
    // the persisted state and serves it before any new ingest.
    let mut cfg = serve_config(SimDuration::days(10));
    cfg.store = Some(StoreConfig {
        dir: dir.clone(),
        slots: default_slots(),
    });
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("rebind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    // Point lookup inside announced space: answered from the summary
    // built across all three days.
    let (status, body) = http_get(http, "/v1/block/20.0.0.0").expect("get");
    assert!(status.starts_with("HTTP/1.1 200"), "point query: {status}");
    assert!(body.contains("\"block\":\"20.0.0.0\""), "body: {body}");
    assert!(body.contains("\"routed\":true"), "body: {body}");
    assert!(
        body.contains(&format!("\"windows\":{}", w.days)),
        "body: {body}"
    );
    assert!(
        body.contains(&format!("\"span_days\":{}", w.days)),
        "body: {body}"
    );

    // Outside announced space: still an answer, not an error.
    let (status, body) = http_get(http, "/v1/block/1.2.3.4").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 200"),
        "unrouted point query: {status}"
    );
    assert!(body.contains("\"routed\":false"), "body: {body}");

    // Bad address: 400.
    let (status, _) = http_get(http, "/v1/block/not-an-ip").expect("get");
    assert!(status.starts_with("HTTP/1.1 400"), "bad address: {status}");

    // Range scan over a persisted window, full and bounded.
    let (status, body) = http_get(http, "/v1/windows/0/verdicts").expect("get");
    assert!(status.starts_with("HTTP/1.1 200"), "range query: {status}");
    assert!(body.contains("\"day\":0"), "body: {body}");
    let (status, _) =
        http_get(http, "/v1/windows/1/verdicts?from=20.0.0.0&to=20.0.255.0").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 200"),
        "bounded range query: {status}"
    );

    // Unknown day is a 404; bad bounds are 400s.
    let (status, _) = http_get(http, "/v1/windows/99/verdicts").expect("get");
    assert!(status.starts_with("HTTP/1.1 404"), "unknown day: {status}");
    let (status, _) = http_get(http, "/v1/windows/0/verdicts?from=zz").expect("get");
    assert!(status.starts_with("HTTP/1.1 400"), "bad bound: {status}");
    let (status, _) =
        http_get(http, "/v1/windows/0/verdicts?from=20.0.1.0&to=20.0.0.0").expect("get");
    assert!(
        status.starts_with("HTTP/1.1 400"),
        "inverted bounds: {status}"
    );

    // The store metrics are registered and the query counters moved.
    let (status, body) = http_get(http, "/metrics").expect("get");
    assert!(status.starts_with("HTTP/1.1 200"), "metrics: {status}");
    assert!(body.contains("mt_store_windows_persisted_total"));
    // Rejected requests (bad address, bad bounds) never reach the
    // query path: two valid points, three well-formed range scans
    // (the unknown day is a well-formed query with a 404 answer).
    assert!(body.contains("mt_store_queries_total{kind=\"point\"} 2"));
    assert!(body.contains("mt_store_queries_total{kind=\"range\"} 3"));

    handle.shutdown();
    let out = runner.join().expect("join").expect("run");
    assert_eq!(out.http_requests, 9, "every query counted");

    // Third run: two more days plus a replay of one day-1 record. The
    // combination resumes from the persisted summary, and the replay
    // is dropped late instead of reopening a persisted day.
    let replayed = Workload {
        flows_per_exporter_day: 1,
        ..w
    }
    .encode_day(0, Day(1), &mut 0, 1);
    assert_eq!(replayed.len(), 1, "one message, one record");
    let mut resumed = streams(&w, w.days..w.days + 2);
    resumed.push(replayed);
    let fresh_flows = 2 * (w.exporters * w.flows_per_exporter_day) as u64;
    let out = ingest_into_store(&dir, &resumed, fresh_flows + 1);
    assert_eq!(out.stream.health.dropped_late, 1, "the replayed record");
    assert_eq!(out.stream.windows.len(), 2, "only the new days closed");

    // The reference: one uninterrupted run over all five days.
    let reference = temp_store_dir("e2e-reference");
    let all_days = w.days + 2;
    ingest_into_store(
        &reference,
        &streams(&w, 0..all_days),
        w.total_flows() + fresh_flows,
    );

    // Both stores answer every block alike, and carry the same combined
    // verdicts: the restarted daemon's result covers the whole history.
    let mut addrs: Vec<Ipv4> = (0..w.exporters)
        .flat_map(|e| (0..all_days).flat_map(move |d| w.day_flows(e, Day(d))))
        .map(|f| f.dst)
        .collect();
    addrs.sort_unstable();
    addrs.dedup_by_key(|a| a.0 >> 8);
    let sample: Vec<Ipv4> = addrs.iter().step_by(10).copied().collect();
    let restarted = block_bodies(&dir, &sample);
    for (addr, (got, want)) in sample
        .iter()
        .zip(restarted.iter().zip(block_bodies(&reference, &sample)))
    {
        assert_eq!(got, &want, "/v1/block/{addr}");
    }
    assert!(
        restarted[0].contains(&format!("\"windows\":{all_days}")),
        "{}",
        restarted[0]
    );
    assert_eq!(summary_verdicts(&dir), summary_verdicts(&reference));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&reference).ok();
}

/// Cold-loads the store in `dir` and answers a GET for each path:
/// `(status line, body)`.
fn get_all(dir: &Path, paths: &[String]) -> Vec<(String, String)> {
    let mut cfg = serve_config(SimDuration::days(10));
    cfg.store = Some(StoreConfig {
        dir: dir.to_path_buf(),
        slots: default_slots(),
    });
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());
    let answers = paths
        .iter()
        .map(|path| http_get(http, path).expect("get"))
        .collect();
    handle.shutdown();
    runner.join().expect("join").expect("run");
    answers
}

#[test]
fn a_corrupt_window_file_is_quarantined_not_fatal() {
    let dir = temp_store_dir("quarantine");
    let w = Workload {
        exporters: 2,
        days: 3,
        flows_per_exporter_day: 300,
        seed: 0x0bad,
    };
    ingest_into_store(&dir, &streams(&w, 0..w.days), w.total_flows());
    let ranges: Vec<String> = (0..w.days)
        .map(|d| format!("/v1/windows/{d}/verdicts"))
        .collect();
    let before = get_all(&dir, &ranges);
    assert!(before
        .iter()
        .all(|(status, _)| status.starts_with("HTTP/1.1 200")));

    // One flipped payload byte in day 1's file: its checksum fails.
    let bad = dir.join("window-00001.mtw");
    let mut bytes = std::fs::read(&bad).expect("read window");
    let at = 64 + bytes.len() / 3;
    bytes[at] ^= 0x10;
    std::fs::write(&bad, &bytes).expect("corrupt window");

    let mut paths = ranges.clone();
    paths.push("/metrics".to_owned());
    let after = get_all(&dir, &paths);
    assert!(
        after[1].0.starts_with("HTTP/1.1 404"),
        "the quarantined day is unknown: {}",
        after[1].0
    );
    for d in [0, 2] {
        assert_eq!(after[d], before[d], "day {d} answers as before");
    }
    assert!(
        after[3]
            .1
            .contains("mt_store_quarantined_total{reason=\"checksum\"} 1"),
        "counted once, by reason"
    );
    assert!(!bad.exists(), "moved out of the store");
    assert_eq!(
        std::fs::read(dir.join("quarantine").join("window-00001.mtw")).expect("quarantined"),
        bytes,
        "kept as found"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_quarantined_window_is_listed_in_events() {
    let dir = temp_store_dir("events");
    let w = Workload {
        exporters: 1,
        days: 2,
        flows_per_exporter_day: 300,
        seed: 0xE7E,
    };
    ingest_into_store(&dir, &streams(&w, 0..w.days), w.total_flows());
    let (status, body) = &get_all(&dir, &["/v1/events".to_owned()])[0];
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert_eq!(body, r#"{"capacity":256,"dropped":0,"events":[]}"#);

    // Day 1's file loses its tail: it is quarantined at the next start.
    let bad = dir.join("window-00001.mtw");
    let bytes = std::fs::read(&bad).expect("read window");
    std::fs::write(&bad, &bytes[..bytes.len() - 1]).expect("truncate window");

    let (status, body) = &get_all(&dir, &["/v1/events".to_owned()])[0];
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let head = r#"{"capacity":256,"dropped":0,"events":[{"seq":0,"kind":"window_quarantined","day":1,"reason":"truncated","detail":""#;
    assert!(body.starts_with(head), "{body}");
    assert!(body.ends_with("\"}]}"), "exactly one event: {body}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every step of every close is timed in `/metrics`: the exposition
/// text the daemon serves is rendered from the run's registry.
#[test]
fn the_store_steps_of_a_close_are_timed() {
    let dir = temp_store_dir("steps");
    let w = Workload {
        exporters: 2,
        days: 3,
        flows_per_exporter_day: 300,
        seed: 0x57e9,
    };
    let out = ingest_into_store(&dir, &streams(&w, 0..w.days), w.total_flows());
    std::fs::remove_dir_all(&dir).ok();
    let text = out.stream.registry.snapshot().render_prometheus_text();
    let value = |series: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {series} in\n{text}"))
    };
    let persisted = value("mt_store_windows_persisted_total");
    assert_eq!(persisted, u64::from(w.days));
    for step in ["build", "write_window", "apply", "write_summary"] {
        let series = |part: &str| format!("mt_store_persist_nanoseconds_{part}{{step=\"{step}\"}}");
        assert_eq!(value(&series("count")), persisted, "{step}");
        assert!(value(&series("sum")) > 0, "{step}");
    }
}

/// Each close exports the spoofing tolerance its pipeline runs forgave:
/// the window's own and the combined span's, as the reports carry them.
#[test]
fn the_tolerance_in_force_is_exported() {
    let w = Workload {
        exporters: 4,
        days: 3,
        flows_per_exporter_day: 1_000,
        seed: 0x7015,
    };
    let mut cfg = serve_config(SimDuration::days(10));
    // Replay sources live in 9.0.0.0/8, outside the replay RIB.
    cfg.stream.pipeline.spoof_tolerance = SpoofRule::Unrouted(vec![9]);
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let http = daemon.http_addr().expect("http on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());
    for messages in streams(&w, 0..w.days) {
        replay::send_tcp(tcp_to, &messages).expect("send stream");
    }
    await_decoded(http, w.total_flows()).expect("decoded");
    handle.shutdown();
    let out = runner.join().expect("join").expect("run");

    let window = out.stream.windows.last().expect("windows closed");
    let combined = out.stream.combined.last().expect("combined");
    let (window, span) = (
        window.result.spoof_tolerance,
        combined.result.spoof_tolerance,
    );
    assert!(
        window >= 1 && span >= 1,
        "an unrouted rule forgives at least 1"
    );
    assert_ne!(window, span, "the scopes are told apart");
    let snapshot = out.stream.registry.snapshot();
    let gauge = |scope| snapshot.scalar("mt_pipeline_spoof_tolerance_packets", &[("scope", scope)]);
    assert_eq!(gauge("window"), Some(window));
    assert_eq!(gauge("span"), Some(span));
}

#[test]
fn shutdown_races_with_inflight_sends_and_still_balances() {
    // Trigger shutdown immediately after the last send returns, with no
    // settling wait: the drain phase must still pull everything out of
    // the kernel buffers before finishing.
    // Exporters send exporter-major here, so day-10 lateness keeps the
    // watermark from closing day 0 while later exporters are mid-send.
    let w = Workload::small(0xD1A6);
    let daemon = Daemon::bind(serve_config(SimDuration::days(10)), |_| {
        replay::default_rib()
    })
    .expect("bind");
    let udp_to = daemon.udp_addr().expect("udp on");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let handle = daemon.shutdown_handle().expect("handle");
    let runner = std::thread::spawn(move || daemon.run());

    // TCP first, then UDP. A connection still in its listener's backlog
    // when the trigger fires is adopted by the drain, not reset, so
    // nothing waits for the accepts to land.
    for e in 0..w.exporters {
        let mut seq = 0;
        let messages: Vec<Vec<u8>> = (0..w.days)
            .flat_map(|d| w.encode_day(e, Day(d), &mut seq, 25))
            .collect();
        if e % 2 == 1 {
            replay::send_tcp(tcp_to, &messages).expect("send stream");
        }
    }
    for e in 0..w.exporters {
        let mut seq = 0;
        let messages: Vec<Vec<u8>> = (0..w.days)
            .flat_map(|d| w.encode_day(e, Day(d), &mut seq, 25))
            .collect();
        if e % 2 == 0 {
            replay::send_udp(udp_to, &messages).expect("send datagrams");
        }
    }
    handle.shutdown();
    let out = runner.join().expect("join").expect("run");

    out.stream.health.check_invariants().expect("final ledger");
    assert_eq!(out.stream.health.in_flight, 0, "drain left nothing queued");
    assert_eq!(
        out.stream.health.decoded,
        w.total_flows(),
        "drain swept the buffers"
    );
    let windowed: u64 = out.stream.windows.iter().map(|w| w.records).sum();
    assert_eq!(windowed, w.total_flows());
}
