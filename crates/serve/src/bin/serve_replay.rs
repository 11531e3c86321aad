//! `serve-replay`: the synthetic exporter fleet.
//!
//! Replays a deterministic [`Workload`] against a running `mt-serve`
//! daemon — one OS thread per exporter, even exporters over UDP (one
//! datagram per message), odd exporters over TCP — and reports the
//! achieved send rate.
//!
//! ```text
//! cargo run --release --bin serve-replay -- \
//!     --udp 127.0.0.1:4739 --tcp 127.0.0.1:4740 \
//!     --exporters 128 --days 1 --flows 10000
//! ```
//!
//! With only `--udp` or only `--tcp`, every exporter uses that
//! transport.

use mt_serve::replay::{self, Workload};
use mt_types::Day;
use mt_wire::ipfix::MAX_RECORDS_PER_MESSAGE;
use std::net::SocketAddr;

struct Args {
    udp: Option<SocketAddr>,
    tcp: Option<SocketAddr>,
    exporters: usize,
    days: u32,
    flows: usize,
    seed: u64,
    records_per_message: usize,
}

const USAGE: &str = "usage: serve-replay (--udp ADDR | --tcp ADDR | both) [OPTIONS]

options:
  --udp ADDR                 daemon IPFIX/UDP target (even exporters)
  --tcp ADDR                 daemon IPFIX/TCP target (odd exporters)
  --exporters N              exporter fleet size (default 8)
  --days N                   simulated days per exporter (default 1)
  --flows N                  flows per exporter-day (default 5000)
  --seed N                   workload seed (default 42)
  --records-per-message N    IPFIX records per message, 1..=1924 (default 50)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        udp: None,
        tcp: None,
        exporters: 8,
        days: 1,
        flows: 5_000,
        seed: 42,
        records_per_message: 50,
    };
    let mut it = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(v: Option<String>, what: &str) -> Result<T, String> {
        v.ok_or_else(|| format!("{what} needs a number"))?
            .parse()
            .map_err(|_| format!("{what} needs a number"))
    }
    let addr = |v: Option<String>, what: &str| -> Result<SocketAddr, String> {
        v.ok_or_else(|| format!("{what} needs ADDR"))?
            .parse()
            .map_err(|e| format!("{what}: {e}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--udp" => args.udp = Some(addr(it.next(), "--udp")?),
            "--tcp" => args.tcp = Some(addr(it.next(), "--tcp")?),
            "--exporters" => args.exporters = num(it.next(), "--exporters")?,
            "--days" => args.days = num(it.next(), "--days")?,
            "--flows" => args.flows = num(it.next(), "--flows")?,
            "--seed" => args.seed = num(it.next(), "--seed")?,
            "--records-per-message" => {
                args.records_per_message = num(it.next(), "--records-per-message")?;
                if !(1..=MAX_RECORDS_PER_MESSAGE).contains(&args.records_per_message) {
                    return Err(format!(
                        "--records-per-message needs 1..={MAX_RECORDS_PER_MESSAGE}"
                    ));
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.udp.is_none() && args.tcp.is_none() {
        return Err("need --udp and/or --tcp target".to_owned());
    }
    Ok(args)
}

/// One exporter's whole send — every day down one socket. Returns
/// datagrams sent (0 for TCP).
fn run_exporter(w: Workload, e: usize, args: &Args) -> std::io::Result<u64> {
    let mut seq = 0;
    let messages =
        (0..w.days).flat_map(|d| w.encode_day(e, Day(d), &mut seq, args.records_per_message));
    match (args.udp, args.tcp) {
        (Some(udp), tcp) if tcp.is_none() || e.is_multiple_of(2) => replay::send_udp(udp, messages),
        (_, Some(tcp)) => replay::send_tcp(tcp, messages).map(|()| 0),
        (_, None) => unreachable!("parse_args wants a target"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("serve-replay: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = Workload {
        exporters: args.exporters,
        days: args.days,
        flows_per_exporter_day: args.flows,
        seed: args.seed,
    };
    println!(
        "serve-replay: {} exporters x {} days x {} flows = {} flows",
        w.exporters,
        w.days,
        w.flows_per_exporter_day,
        w.total_flows()
    );

    // check: allow(determinism, "load-client wall clock; measures the daemon, never enters pipeline output")
    let t0 = std::time::Instant::now();
    let args = &args;
    let datagrams: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.exporters)
            .map(|e| s.spawn(move || run_exporter(w, e, args)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exporter").expect("exporter send"))
            .sum()
    });
    let elapsed = t0.elapsed();

    let rate = w.total_flows() as f64 / elapsed.as_secs_f64();
    println!(
        "serve-replay: sent {} flows ({datagrams} datagrams) in {:.3}s = {:.0} flows/s",
        w.total_flows(),
        elapsed.as_secs_f64(),
        rate
    );
}
