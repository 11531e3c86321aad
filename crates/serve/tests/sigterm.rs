//! SIGTERM handling gets its own test binary: the handler is
//! process-global state, so it must not share a process with tests that
//! don't expect it.

use mt_serve::replay::{self, Workload};
use mt_serve::sys;
use mt_serve::{Daemon, ServeConfig};
use mt_stream::StreamConfig;
use mt_types::{Day, SimDuration};

#[test]
fn sigterm_drains_and_closes_the_final_window() {
    let w = Workload::small(0x7E57);
    let cfg = ServeConfig {
        catch_sigterm: true,
        http: None,
        stream: StreamConfig {
            ingest_threads: 2,
            // Exporter-major sending: keep every window open until the
            // signal-triggered drain closes them all.
            allowed_lateness: SimDuration::days(10),
            ..StreamConfig::default()
        },
        ..ServeConfig::default()
    };
    let daemon = Daemon::bind(cfg, |_| replay::default_rib()).expect("bind");
    let udp_to = daemon.udp_addr().expect("udp on");
    let tcp_to = daemon.tcp_addr().expect("tcp on");
    let runner = std::thread::spawn(move || daemon.run());

    for e in 0..w.exporters {
        let mut seq = 0;
        let messages: Vec<Vec<u8>> = (0..w.days)
            .flat_map(|d| w.encode_day(e, Day(d), &mut seq, 25))
            .collect();
        if e % 2 == 0 {
            replay::send_udp(udp_to, &messages).expect("send datagrams");
        } else {
            replay::send_tcp(tcp_to, &messages).expect("send stream");
        }
    }
    // The real signal, delivered to this process: the handler's only
    // action is one write to the self-pipe, which wakes the loop.
    sys::raise_sigterm();

    let out = runner.join().expect("join").expect("run");
    out.stream.health.check_invariants().expect("final ledger");
    assert_eq!(out.stream.health.decoded, w.total_flows());
    assert_eq!(out.stream.health.in_flight, 0, "drain emptied the queue");
    assert_eq!(
        out.stream.windows.len(),
        w.days as usize,
        "every window closed"
    );
    let windowed: u64 = out.stream.windows.iter().map(|win| win.records).sum();
    assert_eq!(windowed, w.total_flows());
    assert_eq!(
        out.stream.health.dropped_late + out.stream.health.dropped_backpressure,
        0
    );
}
