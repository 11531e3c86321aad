//! A failed bind gets its own test binary: the test counts this
//! process's threads, which tests running beside it would change.

use mt_serve::replay;
use mt_serve::{Daemon, ServeConfig};
use mt_stream::StreamConfig;
use std::io;
use std::net::TcpListener;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn a_failed_bind_leaves_no_thread_behind() {
    // The exporter port is taken, so the bind fails after the service
    // has started its ingest workers.
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServeConfig {
        udp: None,
        tcp: Some(taken.local_addr().expect("addr")),
        http: None,
        event_loops: 1,
        stream: StreamConfig {
            ingest_threads: 4,
            ..StreamConfig::default()
        },
        ..ServeConfig::default()
    };
    let before = threads();
    match Daemon::bind(cfg, |_| replay::default_rib()) {
        Ok(_) => panic!("bound a port that is already taken"),
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse, "{e}"),
    }
    // A joined thread leaves the task list a moment after `join`
    // returns, so the count is polled a bounded number of times; a
    // parked worker never leaves.
    for _ in 0..100_000 {
        if threads() == before {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "every ingest worker was joined");
}
