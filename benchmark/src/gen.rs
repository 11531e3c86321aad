//! Benchmark-owned flow generation, IPFIX encoding and in-place
//! re-stamping.
//!
//! `mt_serve::replay::Workload` stamps records with
//! `step = 86_400 / flows_per_exporter_day`, which truncates to 0 above
//! 86 400 flows: every record then sits at midnight and a window only
//! closes when the day after next starts. Dense days therefore use this
//! generator, which spreads timestamps as `i * 86_400 / n`.
//!
//! One day per exporter is encoded once in set-up; between day segments
//! the same bytes are re-stamped in place (record start times, header
//! export time, header sequence), so harness buffers stay one day large
//! however long the run.

use mt_types::mix::mix3;
use mt_wire::ipfix::{self, IpfixFlow, FLOW_RECORD_LEN, FLOW_TEMPLATE_ID};

/// Seconds per simulated day.
pub const SECS_PER_DAY: u32 = 86_400;
/// The daemon's allowed lateness in the benchmark, as in `mt-serve`.
pub const LATENESS_SECS: u32 = 2 * 3_600;

/// Byte offsets inside an IPFIX message / flow record (RFC 7011 header,
/// `mt_wire::ipfix::FLOW_FIELDS` record layout).
const HDR_EXPORT_TIME: usize = 4;
const HDR_SEQUENCE: usize = 8;
const HDR_LEN: usize = 16;
const REC_START_SECS: usize = FLOW_RECORD_LEN - 4;

/// Day-0 flows of one dense exporter: uniform 40-byte-per-packet SYNs
/// from 9.0.0.0/8 into 20.0.0.0/8 (the space `replay::default_rib`
/// announces), timestamps walking the day front to back.
pub fn dense_flows(seed: u64, exporter: usize, n: usize) -> Vec<IpfixFlow> {
    (0..n)
        .map(|i| {
            let h = mix3(seed ^ 0x6d74_6265_6e63_6800, exporter as u64, i as u64);
            let packets = 1 + (h % 4);
            IpfixFlow {
                src: mt_types::Ipv4(0x0900_0000 | ((h >> 40) as u32 & 0x00ff_ffff)),
                dst: mt_types::Ipv4(0x1400_0000 | (h as u32 & 0x00ff_ffff)),
                src_port: 1024 + ((h >> 24) as u16 % 50_000),
                dst_port: [23u16, 80, 443, 445, 2323][(h >> 8) as usize % 5],
                protocol: 6,
                tcp_flags: 0x02,
                packets,
                octets: 40 * packets,
                start_secs: (i as u64 * u64::from(SECS_PER_DAY) / n as u64) as u32,
            }
        })
        .collect()
}

/// One exporter's encoded day: whole IPFIX messages back to back.
pub struct DayStream {
    /// The messages, contiguous.
    pub bytes: Vec<u8>,
    /// Byte offset of each message, plus the total length at the end.
    pub offsets: Vec<usize>,
    /// Records in the day.
    pub records: u64,
    /// Index of the first message carrying a record stamped at or past
    /// [`LATENESS_SECS`] into the day: gating it closes the previous
    /// day's window.
    pub crossing_msg: usize,
    /// The day the bytes are currently stamped for.
    pub day: u32,
}

impl DayStream {
    /// Encodes day-0 `flows` (ascending start times) as messages of
    /// `per_message` records under observation domain `domain`.
    pub fn encode(flows: &[IpfixFlow], domain: u32, per_message: usize) -> DayStream {
        let mut sequence = 0;
        let messages = ipfix::encode_messages(flows, 0, domain, &mut sequence, per_message);
        let mut bytes = Vec::with_capacity(messages.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(messages.len() + 1);
        for m in &messages {
            offsets.push(bytes.len());
            bytes.extend_from_slice(m);
        }
        offsets.push(bytes.len());
        let crossing_record = flows
            .iter()
            .position(|f| f.start_secs >= LATENESS_SECS)
            .unwrap_or(flows.len());
        DayStream {
            bytes,
            offsets,
            records: flows.len() as u64,
            crossing_msg: crossing_record / per_message,
            day: 0,
        }
    }

    /// Number of messages.
    pub fn messages(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The bytes of messages `from..to`.
    pub fn range(&self, from: usize, to: usize) -> &[u8] {
        &self.bytes[self.offsets[from]..self.offsets[to]]
    }

    /// Message-aligned pieces of at most `max_bytes` covering messages
    /// `from..to` (a single larger message still goes out whole).
    pub fn pieces(&self, from: usize, to: usize, max_bytes: usize) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut start = from;
        while start < to {
            let mut end = start + 1;
            while end < to && self.offsets[end + 1] - self.offsets[start] <= max_bytes {
                end += 1;
            }
            out.push(self.range(start, end));
            start = end;
        }
        out
    }

    /// Re-stamps every message for `day`: record start times and the
    /// header export time move by whole days, the header sequence by
    /// whole days' worth of records.
    pub fn restamp(&mut self, day: u32) {
        let days = day.wrapping_sub(self.day);
        if days == 0 {
            return;
        }
        let dt = days.wrapping_mul(SECS_PER_DAY);
        let dseq = (self.records as u32).wrapping_mul(days);
        for w in self.offsets.windows(2) {
            let msg = &mut self.bytes[w[0]..w[1]];
            add_be32(msg, HDR_EXPORT_TIME, dt);
            add_be32(msg, HDR_SEQUENCE, dseq);
            let mut at = HDR_LEN;
            while at + 4 <= msg.len() {
                let id = u16::from_be_bytes([msg[at], msg[at + 1]]);
                let len = usize::from(u16::from_be_bytes([msg[at + 2], msg[at + 3]]));
                assert!(
                    len >= 4 && at + len <= msg.len(),
                    "own encoding is well-formed"
                );
                if id == FLOW_TEMPLATE_ID {
                    let mut rec = at + 4;
                    while rec + FLOW_RECORD_LEN <= at + len {
                        add_be32(msg, rec + REC_START_SECS, dt);
                        rec += FLOW_RECORD_LEN;
                    }
                }
                at += len;
            }
        }
        self.day = day;
    }
}

fn add_be32(buf: &mut [u8], at: usize, delta: u32) {
    let v = u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
    buf[at..at + 4].copy_from_slice(&v.wrapping_add(delta).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8], stream: &DayStream, from: usize, to: usize) -> Vec<IpfixFlow> {
        let mut c = ipfix::Collector::new();
        let mut out = Vec::new();
        for m in from..to {
            c.decode_message(&bytes[stream.offsets[m]..stream.offsets[m + 1]], &mut out)
                .unwrap();
        }
        out
    }

    #[test]
    fn timestamps_span_the_day_above_86400_flows() {
        let flows = dense_flows(1, 0, 200_000);
        assert_eq!(flows[0].start_secs, 0);
        assert!(flows.last().unwrap().start_secs >= SECS_PER_DAY - 2);
        assert!(flows.windows(2).all(|w| w[0].start_secs <= w[1].start_secs));
        assert!(flows.iter().all(|f| f.start_secs < SECS_PER_DAY));
        assert!(flows
            .iter()
            .all(|f| f.dst.0 >> 24 == 20 && f.octets == 40 * f.packets));
    }

    #[test]
    fn crossing_message_is_the_first_past_lateness() {
        let flows = dense_flows(2, 1, 10_000);
        let s = DayStream::encode(&flows, 1, 64);
        assert!(s.crossing_msg > 0 && s.crossing_msg < s.messages());
        let before = decode(&s.bytes, &s, 0, s.crossing_msg);
        assert!(before.iter().all(|f| f.start_secs < LATENESS_SECS));
        let at = decode(&s.bytes, &s, s.crossing_msg, s.crossing_msg + 1);
        assert!(at.iter().any(|f| f.start_secs >= LATENESS_SECS));
    }

    #[test]
    fn restamp_moves_times_and_sequence_by_whole_days() {
        let flows = dense_flows(3, 0, 1_000);
        let mut s = DayStream::encode(&flows, 7, 64);
        let seq0 = u32::from_be_bytes(s.bytes[8..12].try_into().unwrap());
        s.restamp(3);
        let got = decode(&s.bytes, &s, 0, s.messages());
        assert_eq!(got.len(), flows.len());
        for (g, f) in got.iter().zip(&flows) {
            assert_eq!(g.start_secs, f.start_secs + 3 * SECS_PER_DAY);
            assert_eq!((g.dst, g.src, g.packets), (f.dst, f.src, f.packets));
        }
        let seq3 = u32::from_be_bytes(s.bytes[8..12].try_into().unwrap());
        assert_eq!(seq3, seq0 + 3_000);
        assert_eq!(
            u32::from_be_bytes(s.bytes[4..8].try_into().unwrap()),
            3 * SECS_PER_DAY
        );
        s.restamp(4);
        assert_eq!(decode(&s.bytes, &s, 0, 1)[0].start_secs, 4 * SECS_PER_DAY);
    }

    #[test]
    fn pieces_cover_the_range_on_message_boundaries() {
        let s = DayStream::encode(&dense_flows(4, 0, 1_000), 1, 64);
        let pieces = s.pieces(2, s.messages(), 8_192);
        assert_eq!(
            pieces.iter().map(|p| p.len()).sum::<usize>(),
            s.range(2, s.messages()).len()
        );
        assert!(pieces.iter().all(|p| p.len() <= 8_192));
        assert!(
            pieces.iter().all(|p| p[0] == 0 && p[1] == 10),
            "each starts a message"
        );
    }
}
