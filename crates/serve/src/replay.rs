//! Deterministic traffic replay: the synthetic exporter fleet that
//! feeds the daemon in tests and the `serve-replay` load client, and
//! the blocking socket clients both drive it with.
//!
//! A [`Workload`] is a pure function of its parameters — exporter `e`,
//! day `d`, flow `i` always produce the same record (via
//! [`mt_types::mix::mix3`]) — so a socket run can be compared bit-for-bit
//! against an in-process batch run of the same workload, and any two
//! transports against each other.

use mt_stream::HealthSnapshot;
use mt_types::mix::mix3;
use mt_types::time::SECS_PER_DAY;
use mt_types::{Asn, Day, PrefixTrie, SimTime};
use mt_wire::ipfix::{self, IpfixFlow};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

/// A deterministic multi-exporter, multi-day flow workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Number of synthetic exporters (observation domains).
    pub exporters: usize,
    /// Number of simulated days, starting at day 0.
    pub days: u32,
    /// Flows per exporter per day.
    pub flows_per_exporter_day: usize,
    /// Seed mixed into every draw.
    pub seed: u64,
}

impl Workload {
    /// A small default: enough to close windows, cheap enough for CI.
    pub fn small(seed: u64) -> Workload {
        Workload {
            exporters: 4,
            days: 3,
            flows_per_exporter_day: 200,
            seed,
        }
    }

    /// The flow record `i` of `exporter` on `day`. Destinations fall in
    /// 20.0.0.0/8 (the announced space of [`default_rib`]); timestamps
    /// walk the day front to back so watermarks advance monotonically
    /// within each exporter's stream.
    pub fn flow(&self, exporter: usize, day: Day, i: usize) -> IpfixFlow {
        let h = mix3(
            self.seed ^ 0x006d_7473_6572_7665_u64, // "mtserve"
            (exporter as u64) << 32 | u64::from(day.0),
            i as u64,
        );
        let per_day = self.flows_per_exporter_day as u64;
        // Spread starts across the day, keeping order within the stream:
        // strictly inside the day for `i < per_day`, at any flow count.
        let start =
            day.start() + mt_types::SimDuration::secs(i as u64 * SECS_PER_DAY / per_day.max(1));
        IpfixFlow {
            src: mt_types::Ipv4((0x0900_0000u32).wrapping_add((h >> 40) as u32 & 0x00ff_ffff)),
            dst: mt_types::Ipv4(0x1400_0000 | ((h as u32) & 0x00ff_ff00) | 0x01),
            src_port: 1024 + ((h >> 16) as u16 % 50_000),
            dst_port: [23u16, 80, 443, 445, 2323][(h >> 8) as usize % 5],
            protocol: 6,
            tcp_flags: 0x02,
            packets: 1 + (h % 4),
            octets: 40 * (1 + (h % 4)),
            start_secs: secs_u32(start),
        }
    }

    /// All flows of `exporter` on `day`, in stream order.
    pub fn day_flows(&self, exporter: usize, day: Day) -> Vec<IpfixFlow> {
        (0..self.flows_per_exporter_day)
            .map(|i| self.flow(exporter, day, i))
            .collect()
    }

    /// Total flows the workload generates.
    pub fn total_flows(&self) -> u64 {
        (self.exporters * self.days as usize * self.flows_per_exporter_day) as u64
    }

    /// Encodes `exporter`'s flows for `day` into wire messages of
    /// `records_per_message`, advancing the exporter's sequence state.
    pub fn encode_day(
        &self,
        exporter: usize,
        day: Day,
        sequence: &mut u32,
        records_per_message: usize,
    ) -> Vec<Vec<u8>> {
        ipfix::encode_messages(
            &self.day_flows(exporter, day),
            secs_u32(day.start()),
            exporter as u32,
            sequence,
            records_per_message,
        )
    }
}

/// Seconds-since-epoch of a [`SimTime`], saturated into the wire's u32.
fn secs_u32(t: SimTime) -> u32 {
    u32::try_from(t.0).unwrap_or(u32::MAX)
}

/// The RIB every replay component assumes: 20.0.0.0/8 announced by one
/// AS — matching [`Workload`] destinations, so every generated flow
/// lands in announced space.
pub fn default_rib() -> PrefixTrie<Asn> {
    let mut trie = PrefixTrie::new();
    if let Ok(p) = "20.0.0.0/8".parse() {
        trie.insert(p, Asn(65_000));
    }
    trie
}

/// Sends each message as one UDP datagram, all from one ephemeral
/// socket (one source address, so one session at the daemon). Returns
/// the number of datagrams sent.
pub fn send_udp(
    to: SocketAddr,
    messages: impl IntoIterator<Item = impl AsRef<[u8]>>,
) -> io::Result<u64> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let mut sent = 0;
    for msg in messages {
        sock.send_to(msg.as_ref(), to)?;
        sent += 1;
    }
    Ok(sent)
}

/// Streams messages back to back over one TCP connection, then shuts
/// down the write half so the daemon sees EOF.
pub fn send_tcp(
    to: SocketAddr,
    messages: impl IntoIterator<Item = impl AsRef<[u8]>>,
) -> io::Result<()> {
    let mut sock = TcpStream::connect(to)?;
    for msg in messages {
        sock.write_all(msg.as_ref())?;
    }
    sock.shutdown(std::net::Shutdown::Write)
}

/// Sends `raw` to the daemon's HTTP endpoint and reads the response to
/// EOF; returns `(head, body)`, split at the blank line. Gives up after
/// ten silent seconds, so a request stuck behind a lock is an error,
/// not a hang.
pub fn http_request(addr: SocketAddr, raw: &[u8]) -> io::Result<(String, String)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))?;
    sock.write_all(raw)?;
    let mut response = String::new();
    sock.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    Ok((head.to_owned(), body.to_owned()))
}

/// One blocking `GET path`; see [`http_request`].
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    http_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

/// Polls `/health` until the daemon has decoded `want` records and
/// returns that snapshot; an error after twenty seconds of polling.
pub fn await_decoded(http: SocketAddr, want: u64) -> io::Result<HealthSnapshot> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    for _ in 0..2000 {
        let (head, body) = http_get(http, "/health")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(invalid(format!("/health answered {head}")));
        }
        let health: HealthSnapshot =
            serde_json::from_str(&body).map_err(|e| invalid(format!("/health body: {e}")))?;
        if health.decoded >= want {
            return Ok(health);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        format!("daemon never decoded {want} records"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_in_announced_space() {
        let w = Workload::small(42);
        assert_eq!(w.flow(1, Day(2), 3), w.flow(1, Day(2), 3));
        assert_ne!(w.flow(1, Day(2), 3), w.flow(1, Day(2), 4));
        assert_ne!(w.flow(1, Day(2), 3), Workload::small(43).flow(1, Day(2), 3));
        let rib = default_rib();
        for e in 0..w.exporters {
            for f in w.day_flows(e, Day(0)) {
                assert_eq!(rib.lookup(f.dst).map(|(_, v)| v), Some(&Asn(65_000)));
                let day = Day((u64::from(f.start_secs) / SECS_PER_DAY) as u32);
                assert_eq!(day, Day(0), "flow stays inside its day");
            }
        }
        // Above one flow a second the stamps still walk the whole day.
        let dense = Workload {
            flows_per_exporter_day: 200_000,
            ..w
        };
        let starts: Vec<u32> = dense
            .day_flows(0, Day(1))
            .iter()
            .map(|f| f.start_secs)
            .collect();
        assert!(starts.windows(2).all(|p| p[0] <= p[1]), "non-decreasing");
        assert!(starts.iter().all(|&s| u64::from(s) / SECS_PER_DAY == 1));
        assert_ne!(starts.first(), starts.last(), "the day is not one second");
    }

    #[test]
    fn encoded_day_roundtrips() {
        let w = Workload::small(7);
        let mut seq = 0;
        let msgs = w.encode_day(2, Day(1), &mut seq, 50);
        assert_eq!(seq as usize, w.flows_per_exporter_day);
        let mut c = ipfix::Collector::new();
        let mut out = Vec::new();
        for m in &msgs {
            c.decode_message(m, &mut out).unwrap();
        }
        assert_eq!(out, w.day_flows(2, Day(1)));
    }
}
