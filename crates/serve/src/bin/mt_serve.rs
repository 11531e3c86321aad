//! `mt-serve`: the socket-facing collection daemon.
//!
//! Binds IPFIX/UDP, IPFIX/TCP, and HTTP endpoints, runs the epoll event
//! loop until SIGTERM (or until `--max-seconds` for demos), then drains
//! and prints the final windows and ledger.
//!
//! ```text
//! cargo run --release --bin mt-serve -- \
//!     --udp 127.0.0.1:4739 --tcp 127.0.0.1:4740 --http 127.0.0.1:9178
//! ```
//!
//! Optional artifacts: `--health-json PATH` and `--metrics-text PATH`
//! write the final health document and Prometheus exposition after the
//! drain. `--store-dir PATH` persists every closed
//! window (plus the merged summary) to a results store there and serves
//! `GET /v1/block/...` and `GET /v1/windows/...` from it — windows
//! written by a previous run answer queries immediately on restart.

use mt_serve::{replay, Daemon, ServeConfig};
use mt_store::StoreConfig;
use mt_stream::{OverflowPolicy, StreamConfig};
use mt_types::{RibIndex, SimDuration, Slot24Index};
use std::net::SocketAddr;
use std::sync::Arc;

const USAGE: &str = "usage: mt-serve [OPTIONS]

options:
  --udp ADDR|off          IPFIX/UDP bind address (default 127.0.0.1:4739)
  --tcp ADDR|off          IPFIX/TCP bind address (default 127.0.0.1:4740)
  --http ADDR|off         HTTP bind address (default 127.0.0.1:9178)
  --event-loops N         sharded ingest event loops; 0 = one per core (default 0)
  --lateness-hours N      allowed watermark lateness (default 2)
  --ingest-threads N      pipeline ingest workers (default: cores, capped at 4)
  --max-seconds N         self-shutdown after N seconds (demos)
  --health-json PATH      write the final health document here
  --metrics-text PATH     write the final Prometheus exposition here
  --store-dir PATH        persist windows to a results store and serve /v1";

struct Args {
    udp: Option<SocketAddr>,
    tcp: Option<SocketAddr>,
    http: Option<SocketAddr>,
    event_loops: usize,
    lateness: SimDuration,
    ingest_threads: usize,
    max_seconds: Option<u64>,
    health_json: Option<String>,
    metrics_text: Option<String>,
    store_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        udp: Some("127.0.0.1:4739".parse().map_err(|e| format!("{e}"))?),
        tcp: Some("127.0.0.1:4740".parse().map_err(|e| format!("{e}"))?),
        http: Some("127.0.0.1:9178".parse().map_err(|e| format!("{e}"))?),
        event_loops: 0,
        lateness: SimDuration::hours(2),
        ingest_threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        max_seconds: None,
        health_json: None,
        metrics_text: None,
        store_dir: None,
    };
    let mut it = std::env::args().skip(1);
    let addr = |v: Option<String>, what: &str| -> Result<Option<SocketAddr>, String> {
        let v = v.ok_or_else(|| format!("{what} needs ADDR|off"))?;
        if v == "off" {
            Ok(None)
        } else {
            v.parse().map(Some).map_err(|e| format!("{what} {v}: {e}"))
        }
    };
    fn num<T: std::str::FromStr>(v: Option<String>, what: &str) -> Result<T, String> {
        v.ok_or_else(|| format!("{what} needs a number"))?
            .parse()
            .map_err(|_| format!("{what} needs a number"))
    }
    let path = |v: Option<String>, what: &str| -> Result<String, String> {
        v.ok_or_else(|| format!("{what} needs PATH"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--udp" => args.udp = addr(it.next(), "--udp")?,
            "--tcp" => args.tcp = addr(it.next(), "--tcp")?,
            "--http" => args.http = addr(it.next(), "--http")?,
            "--event-loops" => args.event_loops = num(it.next(), "--event-loops")?,
            "--lateness-hours" => {
                let hours: u64 = num(it.next(), "--lateness-hours")?;
                // `SimDuration` counts seconds in a u64.
                let secs = hours
                    .checked_mul(3600)
                    .ok_or_else(|| format!("--lateness-hours {hours} is out of range"))?;
                args.lateness = SimDuration::secs(secs);
            }
            "--ingest-threads" => {
                args.ingest_threads = num(it.next(), "--ingest-threads")?;
                if args.ingest_threads == 0 {
                    return Err("--ingest-threads needs at least 1".into());
                }
            }
            "--max-seconds" => args.max_seconds = Some(num(it.next(), "--max-seconds")?),
            "--health-json" => args.health_json = Some(path(it.next(), "--health-json")?),
            "--metrics-text" => args.metrics_text = Some(path(it.next(), "--metrics-text")?),
            "--store-dir" => args.store_dir = Some(path(it.next(), "--store-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mt-serve: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The store's slot index must match the RIB the daemon ingests
    // under (reads are fingerprint-gated) — both come from the demo RIB.
    let store = args.store_dir.as_ref().map(|dir| StoreConfig {
        dir: dir.into(),
        slots: Arc::new(Slot24Index::build(&RibIndex::build(&replay::default_rib()))),
    });
    let cfg = ServeConfig {
        udp: args.udp,
        tcp: args.tcp,
        http: args.http,
        event_loops: args.event_loops,
        catch_sigterm: true,
        stream: StreamConfig {
            ingest_threads: args.ingest_threads,
            overflow: OverflowPolicy::Block,
            allowed_lateness: args.lateness,
            ..StreamConfig::default()
        },
        store,
    };
    // The demo RIB: 20.0.0.0/8 announced by one AS. A deployment would
    // plug per-day RIBs in through the library API instead.
    let daemon = match Daemon::bind(cfg, |_| replay::default_rib()) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("mt-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("mt-serve: {} ingest event loops", daemon.event_loops());
    for (what, bound) in [
        ("ipfix/udp", daemon.udp_addr()),
        ("ipfix/tcp", daemon.tcp_addr()),
        ("http", daemon.http_addr()),
    ] {
        match bound {
            Some(a) => println!("mt-serve: {what} on {a}"),
            None => println!("mt-serve: {what} off"),
        }
    }
    println!("mt-serve: SIGTERM drains and exits");

    if let Some(secs) = args.max_seconds {
        let handle = daemon.shutdown_handle().expect("shutdown handle");
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            handle.shutdown();
        });
    }

    // Every way `run` ends has finished the service first, so the open
    // windows are persisted even when it reports an error.
    let out = match daemon.run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("mt-serve: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "\nmt-serve: {} datagrams ({} rejected), {} tcp connections, {} http requests",
        out.datagrams, out.datagrams_rejected, out.tcp_connections, out.http_requests
    );
    println!("per-exporter sessions:");
    for e in &out.stream.health.exporters {
        println!(
            "  {:<24} {:>10} bytes {:>8} flows {:>4} errors",
            e.name, e.bytes, e.flows, e.decode_errors
        );
    }
    println!("windows:");
    for w in &out.stream.windows {
        println!(
            "  {}: {} records -> dark {} unclean {} gray {}",
            w.day,
            w.records,
            w.result.dark.len(),
            w.result.unclean.len(),
            w.result.gray.len()
        );
    }
    let h = &out.stream.health;
    println!(
        "ledger: {} decoded = {} on-time + {} late + {} dropped-late; {} in flight after drain",
        h.decoded, h.on_time, h.late, h.dropped_late, h.in_flight
    );
    if let Err(e) = h.check_invariants() {
        eprintln!("mt-serve: health invariants violated: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &args.health_json {
        let json = serde_json::to_string(h).expect("health serializes");
        std::fs::write(path, &json).expect("write health json");
        println!("wrote health document to {path}");
    }
    if let Some(path) = &args.metrics_text {
        let text = out.stream.registry.snapshot().render_prometheus_text();
        std::fs::write(path, &text).expect("write metrics text");
        println!("wrote Prometheus exposition to {path}");
    }
}
