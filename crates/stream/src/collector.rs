//! Per-exporter IPFIX stream sessions: framing, decoding, resync, and
//! counters.
//!
//! RFC 7011 §10.4 stream transports carry messages back to back with no
//! extra framing — each message is self-delimiting via the length field
//! in its 16-byte header. A session therefore buffers incoming chunks,
//! peels off complete messages, and hands them to its own template
//! [`Collector`] (templates are per transport session, so interleaved
//! exporters never share one). After garbage — a header whose version or
//! declared length is impossible — the session counts a framing error
//! and scans forward for the next plausible header instead of giving up
//! on the stream.

use mt_wire::ipfix::{self, Collector, IpfixFlow};
use std::collections::BTreeMap;

/// Minimum bytes of a decodable unit: the IPFIX message header.
const HEADER_LEN: usize = 16;

/// One exporter's transport session: a framing buffer, a template
/// collector, and counters.
#[derive(Debug, Default)]
pub struct ExporterSession {
    buffer: Vec<u8>,
    collector: Collector,
    /// Bytes fed into the session.
    pub bytes: u64,
    /// Complete messages decoded.
    pub messages: u64,
    /// Flow records decoded.
    pub flows: u64,
    /// Framing-level failures: headers with a wrong version or an
    /// impossible declared length, each followed by a resync scan.
    pub framing_errors: u64,
    /// Datagrams rejected whole by [`feed_datagram`](Self::feed_datagram)
    /// — truncated messages, trailing garbage, or empty payloads. The
    /// datagram transport has no resync (the next datagram starts clean),
    /// so these are counted and dropped rather than scanned past.
    pub bad_datagrams: u64,
}

impl ExporterSession {
    /// Creates a session with an empty buffer and no templates.
    pub fn new() -> Self {
        Self::default()
    }

    /// The session's template collector (set-level skip counters).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Total decode trouble observed on this session: framing errors
    /// plus sets and records the collector had to skip.
    pub fn decode_errors(&self) -> u64 {
        self.framing_errors
            + self.bad_datagrams
            + self.collector.skipped_sets()
            + self.collector.skipped_records
    }

    /// Bytes currently buffered waiting for the rest of a message.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Feeds one chunk of the byte stream, appending every flow of every
    /// complete message to `out`. Chunks may split messages anywhere;
    /// incomplete tails stay buffered for the next call.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<IpfixFlow>) {
        self.bytes += chunk.len() as u64;
        self.buffer.extend_from_slice(chunk);
        let mut pos = 0usize;
        loop {
            let avail = self.buffer.len() - pos;
            if avail < HEADER_LEN {
                break;
            }
            let b = &self.buffer[pos..];
            let version = u16::from_be_bytes([b[0], b[1]]);
            let declared = u16::from_be_bytes([b[2], b[3]]) as usize;
            if version != ipfix::VERSION || declared < HEADER_LEN {
                self.framing_errors += 1;
                match find_header(&self.buffer[pos + 1..]) {
                    Some(off) => pos += 1 + off,
                    None => {
                        // Nothing plausible; keep the final byte in case
                        // it is the first half of a split version field.
                        pos = self.buffer.len() - 1;
                        break;
                    }
                }
                continue;
            }
            if avail < declared {
                break; // wait for the rest of the message
            }
            let before = out.len();
            // The header was validated above, so only set-level trouble
            // remains and that is counted, not raised.
            if self
                .collector
                .decode_message(&self.buffer[pos..pos + declared], out)
                .is_err()
            {
                self.framing_errors += 1;
            } else {
                self.messages += 1;
                self.flows += (out.len() - before) as u64;
            }
            pos += declared;
        }
        self.buffer.drain(..pos);
    }

    /// Feeds one UDP datagram, which must carry whole IPFIX message(s)
    /// (RFC 7011 §10.3 — datagram transports never split a message).
    ///
    /// Returns `true` if the datagram decoded; a rejected datagram
    /// (truncated message, trailing garbage, empty payload, bad header)
    /// bumps [`bad_datagrams`](Self::bad_datagrams), appends nothing to
    /// `out`, and leaves the session's templates intact — the next
    /// datagram starts at a fresh message boundary, so nothing desyncs.
    /// The stream buffer is untouched: one session may serve a peer that
    /// speaks both transports without the two interfering.
    pub fn feed_datagram(&mut self, datagram: &[u8], out: &mut Vec<IpfixFlow>) -> bool {
        self.bytes += datagram.len() as u64;
        let before = out.len();
        match self.collector.decode_datagram(datagram, out) {
            Ok(msgs) => {
                self.messages += msgs;
                self.flows += (out.len() - before) as u64;
                true
            }
            Err(_) => {
                self.bad_datagrams += 1;
                false
            }
        }
    }
}

/// Index of the next plausible message header start (version bytes
/// `00 0A`) in `buf`, if any.
fn find_header(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == [0x00, 0x0A])
}

/// A set of exporter sessions keyed by exporter name.
///
/// Sessions are held in a [`BTreeMap`] so iteration (and thus every
/// per-exporter report) is deterministically ordered by name.
#[derive(Debug, Default)]
pub struct StreamCollector {
    sessions: BTreeMap<String, ExporterSession>,
}

impl StreamCollector {
    /// Creates a collector with no sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one chunk from `exporter`, creating its session on first
    /// contact, and appends the flows decoded from it to `out` — a
    /// long-running producer reuses one allocation across chunks.
    pub fn feed_into(&mut self, exporter: &str, chunk: &[u8], out: &mut Vec<IpfixFlow>) {
        match self.sessions.get_mut(exporter) {
            Some(session) => session.feed(chunk, out),
            None => self.open(exporter).feed(chunk, out),
        }
    }

    /// Feeds one UDP datagram from `exporter` (whole messages only),
    /// creating its session on first contact; appends decoded flows to
    /// `out` and returns whether the datagram was accepted.
    pub fn feed_datagram_into(
        &mut self,
        exporter: &str,
        datagram: &[u8],
        out: &mut Vec<IpfixFlow>,
    ) -> bool {
        match self.sessions.get_mut(exporter) {
            Some(session) => session.feed_datagram(datagram, out),
            None => self.open(exporter).feed_datagram(datagram, out),
        }
    }

    /// Opens `exporter`'s session on first contact; the only place its
    /// name is copied.
    fn open(&mut self, exporter: &str) -> &mut ExporterSession {
        self.sessions.entry(exporter.to_owned()).or_default()
    }

    /// The session of one exporter, if it has sent anything.
    pub fn session(&self, exporter: &str) -> Option<&ExporterSession> {
        self.sessions.get(exporter)
    }

    /// All sessions, ordered by exporter name.
    pub fn sessions(&self) -> impl Iterator<Item = (&str, &ExporterSession)> {
        self.sessions.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total flows decoded across all sessions.
    pub fn total_flows(&self) -> u64 {
        self.sessions.values().map(|s| s.flows).sum()
    }

    /// Total decode errors across all sessions.
    pub fn total_decode_errors(&self) -> u64 {
        self.sessions.values().map(|s| s.decode_errors()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_types::Ipv4;

    fn flows(n: u32) -> Vec<IpfixFlow> {
        (0..n)
            .map(|i| IpfixFlow {
                src: Ipv4(0x0900_0000 + i),
                dst: Ipv4(0x1400_0000 + i),
                src_port: 40_000,
                dst_port: 23,
                protocol: 6,
                tcp_flags: 2,
                packets: 1 + u64::from(i),
                octets: 40 * (1 + u64::from(i)),
                start_secs: 100 + i,
            })
            .collect()
    }

    fn messages(flows: &[IpfixFlow], domain: u32) -> Vec<u8> {
        let mut seq = 0;
        ipfix::encode_messages(flows, 1, domain, &mut seq, 5)
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn whole_stream_decodes() {
        let input = flows(12);
        let stream = messages(&input, 7);
        let mut s = ExporterSession::new();
        let mut out = Vec::new();
        s.feed(&stream, &mut out);
        assert_eq!(out, input);
        assert_eq!(s.messages, 3, "12 flows at 5/message");
        assert_eq!(s.flows, 12);
        assert_eq!(s.decode_errors(), 0);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn any_chunking_decodes_identically() {
        let input = flows(20);
        let stream = messages(&input, 7);
        for chunk_size in [1, 3, 16, 64, 1000] {
            let mut s = ExporterSession::new();
            let mut out = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                s.feed(chunk, &mut out);
            }
            assert_eq!(out, input, "chunk size {chunk_size}");
            assert_eq!(s.bytes, stream.len() as u64);
            assert_eq!(s.decode_errors(), 0);
        }
    }

    #[test]
    fn garbage_between_messages_is_survived() {
        let input = flows(6);
        let mut seq = 0;
        let msgs = ipfix::encode_messages(&input, 1, 7, &mut seq, 3);
        let mut stream = msgs[0].clone();
        stream.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x55, 0x66, 0x77]);
        stream.extend_from_slice(&msgs[1]);
        let mut s = ExporterSession::new();
        let mut out = Vec::new();
        s.feed(&stream, &mut out);
        assert_eq!(out, input, "both messages recovered around the garbage");
        assert!(s.framing_errors > 0, "the garbage was counted");
    }

    #[test]
    fn sessions_do_not_share_templates() {
        // Exporter A never sends a template (its stream starts with a
        // hand-built data-set-only message); exporter B's templates must
        // not leak into A's session.
        let input = flows(4);
        let b_stream = messages(&input, 2);
        let mut c = StreamCollector::new();
        let mut got_b = Vec::new();
        c.feed_into("B", &b_stream, &mut got_b);
        assert_eq!(got_b, input);

        // A data-only message: header + data set referencing template 256.
        let mut a_msg: Vec<u8> = Vec::new();
        a_msg.extend_from_slice(&10u16.to_be_bytes());
        a_msg.extend_from_slice(&0u16.to_be_bytes()); // patched below
        a_msg.extend_from_slice(&0u32.to_be_bytes());
        a_msg.extend_from_slice(&0u32.to_be_bytes());
        a_msg.extend_from_slice(&9u32.to_be_bytes());
        a_msg.extend_from_slice(&256u16.to_be_bytes());
        let set_len = 4 + ipfix::FLOW_RECORD_LEN;
        a_msg.extend_from_slice(&(set_len as u16).to_be_bytes());
        a_msg.extend_from_slice(&[0u8; ipfix::FLOW_RECORD_LEN]);
        let total = a_msg.len() as u16;
        a_msg[2..4].copy_from_slice(&total.to_be_bytes());

        let mut got_a = Vec::new();
        c.feed_into("A", &a_msg, &mut got_a);
        assert!(got_a.is_empty(), "A has no template for id 256");
        assert_eq!(c.session("A").unwrap().collector().unknown_sets, 1);
        assert_eq!(c.session("B").unwrap().decode_errors(), 0);
    }

    #[test]
    fn interleaved_exporters_keep_their_counters_apart() {
        let a_in = flows(5);
        let b_in = flows(9);
        let a_stream = messages(&a_in, 1);
        let b_stream = messages(&b_in, 2);
        let mut c = StreamCollector::new();
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        // Interleave in small chunks.
        let mut ai = a_stream.chunks(7);
        let mut bi = b_stream.chunks(11);
        loop {
            let a = ai.next();
            let b = bi.next();
            if let Some(chunk) = a {
                c.feed_into("A", chunk, &mut got_a);
            }
            if let Some(chunk) = b {
                c.feed_into("B", chunk, &mut got_b);
            }
            if a.is_none() && b.is_none() {
                break;
            }
        }
        assert_eq!(got_a, a_in);
        assert_eq!(got_b, b_in);
        assert_eq!(c.session("A").unwrap().flows, 5);
        assert_eq!(c.session("B").unwrap().flows, 9);
        assert_eq!(c.total_flows(), 14);
        let names: Vec<&str> = c.sessions().map(|(n, _)| n).collect();
        assert_eq!(names, ["A", "B"], "deterministic session order");
    }

    #[test]
    fn datagram_feed_counts_and_recovers() {
        let input = flows(6);
        let mut seq = 0;
        let msgs = ipfix::encode_messages(&input, 1, 7, &mut seq, 3);
        let mut s = ExporterSession::new();
        let mut out = Vec::new();
        // Datagram 1: both messages, whole.
        let dg1: Vec<u8> = msgs.iter().flatten().copied().collect();
        assert!(s.feed_datagram(&dg1, &mut out));
        assert_eq!(out, input);
        assert_eq!(s.messages, 2);
        // Datagram 2: torn tail → counted, dropped, nothing appended.
        let torn = &dg1[..dg1.len() - 3];
        assert!(!s.feed_datagram(torn, &mut out));
        assert_eq!(out, input, "rejected datagram appends nothing");
        assert_eq!(s.bad_datagrams, 1);
        assert_eq!(s.decode_errors(), 1);
        // Datagram 3: clean again — no desync.
        assert!(s.feed_datagram(&dg1, &mut out));
        assert_eq!(s.flows, 12);
        assert_eq!(s.bytes, (dg1.len() * 2 + torn.len()) as u64);
    }

    #[test]
    fn datagram_and_stream_feeds_do_not_interfere() {
        // A half message left buffered by the stream path must not bleed
        // into datagram decoding, and vice versa.
        let input = flows(4);
        let stream = messages(&input, 7);
        let mut s = ExporterSession::new();
        let mut out = Vec::new();
        let half = stream.len() / 2;
        s.feed(&stream[..half], &mut out);
        assert!(s.buffered() > 0);
        // Whole datagram between the two stream halves.
        assert!(s.feed_datagram(&stream, &mut out));
        // Then the rest of the stream.
        s.feed(&stream[half..], &mut out);
        let mut expect = input.clone();
        expect.extend_from_slice(&input);
        assert_eq!(out, expect);
        assert_eq!(s.decode_errors(), 0);
    }

    #[test]
    fn collector_feed_datagram_into_keys_sessions() {
        let input = flows(3);
        let dg = messages(&input, 1);
        let mut c = StreamCollector::new();
        let mut out = Vec::new();
        assert!(c.feed_datagram_into("udp:peer", &dg, &mut out));
        assert_eq!(out, input);
        assert!(!c.feed_datagram_into("udp:peer", &[0xff; 3], &mut out));
        assert_eq!(c.session("udp:peer").unwrap().bad_datagrams, 1);
        assert_eq!(c.total_decode_errors(), 1);
    }

    #[test]
    fn split_header_at_tail_is_not_lost() {
        let input = flows(3);
        let stream = messages(&input, 7);
        let mut s = ExporterSession::new();
        let mut out = Vec::new();
        // Garbage that ends with the first byte of a real header, then
        // the rest of the stream in a later chunk.
        let mut first = vec![0xffu8, 0xfe];
        first.push(stream[0]);
        s.feed(&first, &mut out);
        s.feed(&stream[1..], &mut out);
        assert_eq!(out, input);
    }
}
