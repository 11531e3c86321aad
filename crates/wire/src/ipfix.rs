//! IPFIX-lite: the RFC 7011 subset the IXP vantage points use to export
//! sampled flow records.
//!
//! Implemented: the 16-byte message header (version 10), template sets
//! (set id 2) with IANA information elements, template withdrawal
//! (§8.1), and data sets keyed by template id. Not implemented (not
//! needed by the workspace): options templates, enterprise-specific
//! elements, variable-length fields.
//!
//! The exporter emits the template set at the start of every message, as
//! RFC 7011 permits (UDP transports re-send templates periodically; doing
//! it per message keeps every message self-describing, which matters for
//! a file-based interchange). The collector learns templates as they
//! appear and rejects data sets that reference an unknown template.
//!
//! Every read and write is a fixed-width big-endian field at a constant
//! offset: a data record is taken whole as a `[u8; FLOW_RECORD_LEN]`
//! and its fields read at the `field` offsets, and headers are
//! checked for length once and then read the same way. Nothing on the
//! per-record path calls out of the crate.

use crate::bytes::{be_u16, be_u32, be_u64};
use crate::{Result, WireError};
use std::collections::{HashMap, HashSet};

#[cfg(test)]
mod oracle;

/// The IPFIX protocol version.
pub const VERSION: u16 = 10;

/// Set id of a template set.
pub const TEMPLATE_SET_ID: u16 = 2;

/// The template id this exporter uses for flow records (data set ids must
/// be ≥ 256).
pub const FLOW_TEMPLATE_ID: u16 = 256;

/// IANA information element ids used by the flow template, in record
/// order, with their encoded lengths.
pub const FLOW_FIELDS: &[(u16, u16)] = &[
    (8, 4),   // sourceIPv4Address
    (12, 4),  // destinationIPv4Address
    (7, 2),   // sourceTransportPort
    (11, 2),  // destinationTransportPort
    (4, 1),   // protocolIdentifier
    (6, 1),   // tcpControlBits
    (2, 8),   // packetDeltaCount
    (1, 8),   // octetDeltaCount
    (150, 4), // flowStartSeconds
];

/// Encoded length of one data record under [`FLOW_FIELDS`].
pub const FLOW_RECORD_LEN: usize = 4 + 4 + 2 + 2 + 1 + 1 + 8 + 8 + 4;

/// Byte offsets of the [`FLOW_FIELDS`] inside one data record.
mod field {
    use std::ops::Range;

    pub const SRC: Range<usize> = 0..4;
    pub const DST: Range<usize> = 4..8;
    pub const SRC_PORT: Range<usize> = 8..10;
    pub const DST_PORT: Range<usize> = 10..12;
    pub const PROTOCOL: usize = 12;
    pub const TCP_FLAGS: usize = 13;
    pub const PACKETS: Range<usize> = 14..22;
    pub const OCTETS: Range<usize> = 22..30;
    pub const START_SECS: Range<usize> = 30..34;
}

/// Length of the message header.
const HEADER_LEN: usize = 16;

/// Length of a set header, and of a template record header.
const SET_HEADER_LEN: usize = 4;

/// One exported flow record, as carried on the wire.
///
/// `packets` and `octets` are *sampled* delta counts; the sampling rate is
/// conveyed out of band (per vantage-point metadata), as is common in IXP
/// deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpfixFlow {
    /// Source IPv4 address.
    pub src: mt_types::Ipv4,
    /// Destination IPv4 address.
    pub dst: mt_types::Ipv4,
    /// Source transport port (0 for ICMP).
    pub src_port: u16,
    /// Destination transport port (0 for ICMP).
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
    /// Union of TCP flags seen on the sampled packets.
    pub tcp_flags: u8,
    /// Sampled packet count.
    pub packets: u64,
    /// Sampled octet count.
    pub octets: u64,
    /// Flow start, seconds since the simulation epoch.
    pub start_secs: u32,
}

impl IpfixFlow {
    fn encode(&self) -> [u8; FLOW_RECORD_LEN] {
        let mut rec = [0u8; FLOW_RECORD_LEN];
        rec[field::SRC].copy_from_slice(&self.src.0.to_be_bytes());
        rec[field::DST].copy_from_slice(&self.dst.0.to_be_bytes());
        rec[field::SRC_PORT].copy_from_slice(&self.src_port.to_be_bytes());
        rec[field::DST_PORT].copy_from_slice(&self.dst_port.to_be_bytes());
        rec[field::PROTOCOL] = self.protocol;
        rec[field::TCP_FLAGS] = self.tcp_flags;
        rec[field::PACKETS].copy_from_slice(&self.packets.to_be_bytes());
        rec[field::OCTETS].copy_from_slice(&self.octets.to_be_bytes());
        rec[field::START_SECS].copy_from_slice(&self.start_secs.to_be_bytes());
        rec
    }

    fn decode(rec: &[u8; FLOW_RECORD_LEN]) -> IpfixFlow {
        IpfixFlow {
            src: mt_types::Ipv4(be_u32(rec, field::SRC)),
            dst: mt_types::Ipv4(be_u32(rec, field::DST)),
            src_port: be_u16(rec, field::SRC_PORT),
            dst_port: be_u16(rec, field::DST_PORT),
            protocol: rec[field::PROTOCOL],
            tcp_flags: rec[field::TCP_FLAGS],
            packets: be_u64(rec, field::PACKETS),
            octets: be_u64(rec, field::OCTETS),
            start_secs: be_u32(rec, field::START_SECS),
        }
    }
}

/// Encoded length of the template set: set header, template header,
/// one `(ie, len)` pair per field.
const TEMPLATE_SET_LEN: usize = 4 + 4 + FLOW_FIELDS.len() * 4;

/// The template set every message starts with, as bytes.
const TEMPLATE_SET: [u8; TEMPLATE_SET_LEN] = {
    const fn put(set: &mut [u8; TEMPLATE_SET_LEN], at: usize, v: u16) {
        let [hi, lo] = v.to_be_bytes();
        set[at] = hi;
        set[at + 1] = lo;
    }
    let mut set = [0u8; TEMPLATE_SET_LEN];
    put(&mut set, 0, TEMPLATE_SET_ID);
    put(&mut set, 2, TEMPLATE_SET_LEN as u16);
    put(&mut set, 4, FLOW_TEMPLATE_ID);
    put(&mut set, 6, FLOW_FIELDS.len() as u16);
    let mut i = 0;
    while i < FLOW_FIELDS.len() {
        put(&mut set, 8 + 4 * i, FLOW_FIELDS[i].0);
        put(&mut set, 10 + 4 * i, FLOW_FIELDS[i].1);
        i += 1;
    }
    set
};

/// Bytes of a message before its first data record: message header,
/// template set, data set header.
const MESSAGE_OVERHEAD: usize = HEADER_LEN + TEMPLATE_SET_LEN + SET_HEADER_LEN;

/// The most data records [`encode_messages`] puts in one message: the
/// largest count whose message still fits a UDP payload (65 507 bytes),
/// and with it the `u16` set and message length fields.
pub const MAX_RECORDS_PER_MESSAGE: usize = (65_507 - MESSAGE_OVERHEAD) / FLOW_RECORD_LEN;

/// Encodes flow records into one or more IPFIX messages.
///
/// Each message carries the template set followed by a data set with up to
/// `max_records_per_message` records, capped at [`MAX_RECORDS_PER_MESSAGE`].
/// `sequence` is the exporter's running
/// data-record counter (RFC 7011 §3.1) and is advanced by this call.
pub fn encode_messages(
    flows: &[IpfixFlow],
    export_time: u32,
    domain: u32,
    sequence: &mut u32,
    max_records_per_message: usize,
) -> Vec<Vec<u8>> {
    assert!(max_records_per_message > 0);
    let per_message = max_records_per_message.min(MAX_RECORDS_PER_MESSAGE);
    let mut messages = Vec::new();
    let chunks: Vec<&[IpfixFlow]> = if flows.is_empty() {
        vec![&[][..]] // still emit one message so templates propagate
    } else {
        flows.chunks(per_message).collect()
    };
    for chunk in chunks {
        // The cap keeps both lengths inside their u16 fields.
        let data_len = match chunk.len() {
            0 => 0,
            n => SET_HEADER_LEN + n * FLOW_RECORD_LEN,
        };
        let total = HEADER_LEN + TEMPLATE_SET_LEN + data_len;
        let mut msg = Vec::with_capacity(total);
        msg.extend_from_slice(&VERSION.to_be_bytes());
        msg.extend_from_slice(&(total as u16).to_be_bytes());
        msg.extend_from_slice(&export_time.to_be_bytes());
        msg.extend_from_slice(&sequence.to_be_bytes());
        msg.extend_from_slice(&domain.to_be_bytes());
        msg.extend_from_slice(&TEMPLATE_SET);
        if data_len > 0 {
            msg.extend_from_slice(&FLOW_TEMPLATE_ID.to_be_bytes());
            msg.extend_from_slice(&(data_len as u16).to_be_bytes());
            for flow in chunk {
                msg.extend_from_slice(&flow.encode());
            }
        }
        *sequence = sequence.wrapping_add(chunk.len() as u32);
        messages.push(msg);
    }
    messages
}

/// A collector that consumes IPFIX messages and yields flow records.
///
/// Learns template definitions from template sets; a template whose field
/// layout differs from [`FLOW_FIELDS`] is remembered but its data records
/// are skipped (we only understand our own layout). A template record
/// with no fields withdraws its id, and one under the template set's own
/// id withdraws every template of the session (RFC 7011 §8.1); data sets
/// that reference a withdrawn id are then unknown. Unknown set ids are
/// skipped per RFC 7011 §8.
///
/// A long-running collector must not lose a whole message because one
/// set inside it is bad (a UDP exporter will never re-send it), so set
/// level problems are *counted*, not raised: data sets referencing a
/// template that was never seen bump [`Collector::unknown_sets`], and
/// structurally broken sets (impossible set length, truncated or
/// out-of-range template records, trailing garbage) bump
/// [`Collector::malformed_sets`] — decoding then resumes at the next
/// set boundary when one exists, or gives up on the rest of the message
/// when the boundary itself is lost. Hard [`WireError`]s remain only for
/// unparseable *message headers* (short buffer, wrong version, declared
/// length out of range), where nothing after the error can be trusted.
#[derive(Debug, Default)]
pub struct Collector {
    /// Ids of the templates whose layout is [`FLOW_FIELDS`].
    known: HashSet<u16>,
    /// Template id → record length, for templates with a foreign layout.
    foreign: HashMap<u16, usize>,
    /// Count of data records skipped: those of a foreign template, and
    /// those claiming zero packets (a flow record describes at least
    /// one packet, and the fold divides octets by packets).
    pub skipped_records: u64,
    /// Count of data sets skipped because their template was never seen,
    /// or was withdrawn.
    pub unknown_sets: u64,
    /// Count of sets (or set remainders) skipped as structurally
    /// malformed: a set length under 4 or past the message end, a broken
    /// template record, or trailing bytes shorter than a set header.
    pub malformed_sets: u64,
    /// Reusable field-list buffer for template parsing, so a long-lived
    /// collector decodes template sets without per-record allocation.
    scratch_fields: Vec<(u16, u16)>,
}

impl Collector {
    /// Creates an empty collector (no templates known yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total sets skipped for any reason (unknown template or malformed
    /// structure) — the "decode trouble" signal a streaming session
    /// surfaces per exporter.
    pub fn skipped_sets(&self) -> u64 {
        self.unknown_sets + self.malformed_sets
    }

    /// Parses one message, appending decoded flows to `out`.
    ///
    /// Returns `Err` only for unparseable message headers; bad sets
    /// inside an otherwise well-framed message are skipped and counted
    /// (see the type-level docs).
    pub fn decode_message(&mut self, msg: &[u8], out: &mut Vec<IpfixFlow>) -> Result<()> {
        let Some(header) = msg.first_chunk::<HEADER_LEN>() else {
            return Err(WireError::Truncated);
        };
        if be_u16(header, 0..2) != VERSION {
            return Err(WireError::Version);
        }
        // `None` for a declared length under the header or past the end.
        let declared = usize::from(be_u16(header, 2..4));
        let Some(mut body) = msg.get(HEADER_LEN..declared) else {
            return Err(WireError::Truncated);
        };
        while let Some((set_header, rest)) = body.split_first_chunk::<SET_HEADER_LEN>() {
            let set_id = be_u16(set_header, 0..2);
            let set_len = usize::from(be_u16(set_header, 2..4));
            let Some((set_body, rest)) = set_len
                .checked_sub(SET_HEADER_LEN)
                .and_then(|n| rest.split_at_checked(n))
            else {
                // The set boundary is lost; nothing after this point in
                // the message can be framed. Skip the remainder.
                self.malformed_sets += 1;
                return Ok(());
            };
            body = rest;
            match set_id {
                TEMPLATE_SET_ID => self.learn_templates(set_body),
                id if id >= 256 => self.decode_data_set(id, set_body, out),
                _ => {} // options templates etc.: skipped
            }
        }
        if !body.is_empty() {
            // Trailing bytes shorter than a set header.
            self.malformed_sets += 1;
        }
        Ok(())
    }

    /// Parses one UDP datagram carrying whole IPFIX message(s) — the
    /// RFC 7011 §10.3 datagram transport, where message boundaries never
    /// straddle datagrams. Returns the number of messages decoded.
    ///
    /// Datagrams are all-or-nothing: a bad message header, a declared
    /// length overrunning the datagram, trailing bytes shorter than a
    /// header, or an empty datagram rejects the *whole* datagram — `out`
    /// is rolled back to its entry length so a partially-decoded
    /// datagram never leaks records. Templates learned from earlier
    /// messages in a rejected datagram stand (template learning is
    /// monotone per session, so keeping them cannot desync anything),
    /// and set-level trouble inside well-framed messages stays counted,
    /// not fatal, exactly as in [`decode_message`](Self::decode_message).
    pub fn decode_datagram(&mut self, datagram: &[u8], out: &mut Vec<IpfixFlow>) -> Result<u64> {
        let entry = out.len();
        let mut pos = 0usize;
        let mut messages = 0u64;
        while datagram.len() - pos >= 16 {
            let declared = u16::from_be_bytes([datagram[pos + 2], datagram[pos + 3]]) as usize;
            if declared < 16 || declared > datagram.len() - pos {
                out.truncate(entry);
                return Err(WireError::Truncated);
            }
            if let Err(e) = self.decode_message(&datagram[pos..pos + declared], out) {
                out.truncate(entry);
                return Err(e);
            }
            pos += declared;
            messages += 1;
        }
        if pos != datagram.len() || messages == 0 {
            // Trailing bytes shorter than a message header, or an empty
            // datagram: nothing an exporter would ever legitimately send.
            out.truncate(entry);
            return Err(WireError::Malformed);
        }
        Ok(messages)
    }

    fn learn_templates(&mut self, mut set: &[u8]) {
        // A template set may hold several template records; trailing
        // padding shorter than a record header is permitted. A broken
        // record loses the in-set framing, so the rest of the set is
        // skipped (and counted) — but templates already learned stand.
        while let Some((head, rest)) = set.split_first_chunk::<SET_HEADER_LEN>() {
            let template_id = be_u16(head, 0..2);
            let field_count = usize::from(be_u16(head, 2..4));
            let Some((fields, rest)) = rest.split_at_checked(field_count * 4) else {
                self.malformed_sets += 1;
                return;
            };
            set = rest;
            self.scratch_fields.clear();
            let (fields, _) = fields.as_chunks::<4>();
            let pairs = fields.iter().map(|f| (be_u16(f, 0..2), be_u16(f, 2..4)));
            self.scratch_fields.extend(pairs);
            if !self.apply_template(template_id) {
                self.malformed_sets += 1;
                return;
            }
        }
    }

    /// Applies the template record `template_id` whose fields were just
    /// read into `scratch_fields`. A definition replaces whatever the id
    /// meant before; a record with no fields withdraws its id, or under
    /// the template set's own id every template of the session
    /// (RFC 7011 §8.1). Returns `false` for a record that cannot be
    /// applied — any other id below 256, an enterprise element — which
    /// the caller counts as malformed.
    fn apply_template(&mut self, template_id: u16) -> bool {
        if self.scratch_fields.is_empty() {
            match template_id {
                TEMPLATE_SET_ID => {
                    self.known.clear();
                    self.foreign.clear();
                }
                id if id >= 256 => {
                    self.known.remove(&id);
                    self.foreign.remove(&id);
                }
                _ => return false,
            }
            return true;
        }
        // Enterprise elements are out of scope.
        let enterprise = self.scratch_fields.iter().any(|&(ie, _)| ie & 0x8000 != 0);
        if template_id < 256 || enterprise {
            return false;
        }
        if self.scratch_fields == FLOW_FIELDS {
            self.known.insert(template_id);
            self.foreign.remove(&template_id);
        } else {
            let record_len = self.scratch_fields.iter().map(|&(_, len)| usize::from(len));
            self.foreign.insert(template_id, record_len.sum());
            self.known.remove(&template_id);
        }
        true
    }

    fn decode_data_set(&mut self, template_id: u16, set: &[u8], out: &mut Vec<IpfixFlow>) {
        if self.known.contains(&template_id) {
            // Trailing padding shorter than a record is permitted.
            let (records, _padding) = set.as_chunks::<FLOW_RECORD_LEN>();
            out.reserve(records.len());
            for rec in records {
                let flow = IpfixFlow::decode(rec);
                // A flow record describes at least one packet: one that
                // claims none has no mean size and is no traffic.
                if flow.packets == 0 {
                    self.skipped_records += 1;
                } else {
                    out.push(flow);
                }
            }
        } else if let Some(&len) = self.foreign.get(&template_id) {
            if let Some(skipped) = set.len().checked_div(len) {
                self.skipped_records += skipped as u64;
            }
        } else {
            self.unknown_sets += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use mt_types::Ipv4;

    fn sample_flow(i: u32) -> IpfixFlow {
        IpfixFlow {
            src: Ipv4(0x0a000000 + i),
            dst: Ipv4(0xc0000200 + i),
            src_port: 40000 + i as u16,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 0x02,
            packets: 1 + u64::from(i),
            octets: 40 * (1 + u64::from(i)),
            start_secs: 1000 + i,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let flows: Vec<IpfixFlow> = (0..10).map(sample_flow).collect();
        let mut seq = 0;
        let msgs = encode_messages(&flows, 42, 7, &mut seq, 4);
        assert_eq!(msgs.len(), 3, "10 flows at 4/message → 3 messages");
        assert_eq!(seq, 10);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        for m in &msgs {
            collector.decode_message(m, &mut out).unwrap();
        }
        assert_eq!(out, flows);
        assert_eq!(collector.skipped_records, 0);
    }

    #[test]
    fn a_zero_packet_record_is_skipped_and_counted() {
        let mut flows: Vec<IpfixFlow> = (0..4).map(sample_flow).collect();
        flows[2].packets = 0;
        let mut collector = Collector::new();
        let mut out = Vec::new();
        for m in &encode_messages(&flows, 42, 7, &mut 0, 8) {
            collector.decode_message(m, &mut out).unwrap();
        }
        assert_eq!(out, [flows[0], flows[1], flows[3]]);
        assert_eq!(collector.skipped_records, 1);
    }

    #[test]
    fn oversized_message_requests_are_capped_so_no_length_field_wraps() {
        // 3 000 records would need a 102 064-byte message, more than
        // the u16 set and message length fields can say: uncapped, the
        // lengths wrap and the collector loses most of the records.
        let flows: Vec<IpfixFlow> = (0..6_000).map(sample_flow).collect();
        let mut seq = 0;
        let msgs = encode_messages(&flows, 42, 7, &mut seq, 3_000);
        assert_eq!(seq, 6_000);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        for m in &msgs {
            collector.decode_message(m, &mut out).unwrap();
        }
        assert_eq!(out.len(), flows.len(), "every record comes back");
        assert_eq!(out, flows);
        assert_eq!(collector.skipped_sets(), 0);
        assert_eq!(msgs.len(), 6_000usize.div_ceil(MAX_RECORDS_PER_MESSAGE));
        assert!(
            msgs.iter().all(|m| m.len() <= 65_507),
            "each fits a datagram"
        );
    }

    #[test]
    fn empty_flow_list_still_produces_template_message() {
        let mut seq = 0;
        let msgs = encode_messages(&[], 1, 1, &mut seq, 100);
        assert_eq!(msgs.len(), 1);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        collector.decode_message(&msgs[0], &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn data_before_template_is_skipped_and_counted() {
        let flows = vec![sample_flow(0)];
        let mut seq = 0;
        let msgs = encode_messages(&flows, 1, 1, &mut seq, 10);
        // Strip the template set out of the message: keep header, then
        // re-assemble with only the data set.
        let msg = &msgs[0];
        let tmpl_len = 4 + 4 + FLOW_FIELDS.len() * 4;
        let mut stripped = msg[..16].to_vec();
        stripped.extend_from_slice(&msg[16 + tmpl_len..]);
        let total = stripped.len() as u16;
        stripped[2..4].copy_from_slice(&total.to_be_bytes());
        let mut collector = Collector::new();
        let mut out = Vec::new();
        // The set is skipped (counted), not a hard error: a later message
        // carrying the template must still decode on the same session.
        collector.decode_message(&stripped, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(collector.unknown_sets, 1);
        for m in &msgs {
            collector.decode_message(m, &mut out).unwrap();
        }
        assert_eq!(out, flows);
    }

    #[test]
    fn malformed_set_length_skips_rest_of_message_only() {
        // Message: [good data set][set with impossible length]. The good
        // set decodes; the bad one is counted and the tail abandoned.
        let flows = vec![sample_flow(0), sample_flow(1)];
        let mut seq = 0;
        let mut msg = encode_messages(&flows, 1, 1, &mut seq, 10).remove(0);
        let patch_total = |msg: &mut Vec<u8>| {
            let total = msg.len() as u16;
            msg[2..4].copy_from_slice(&total.to_be_bytes());
        };
        // Append a set whose declared length (3) is under the 4-byte header.
        msg.put_u16(999);
        msg.put_u16(3);
        patch_total(&mut msg);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        collector.decode_message(&msg, &mut out).unwrap();
        assert_eq!(out, flows, "sets before the bad one still decode");
        assert_eq!(collector.malformed_sets, 1);
        // A set length pointing past the message end is likewise counted.
        let mut msg2 = encode_messages(&flows, 1, 1, &mut seq, 10).remove(0);
        msg2.put_u16(999);
        msg2.put_u16(60_000);
        patch_total(&mut msg2);
        let mut out2 = Vec::new();
        collector.decode_message(&msg2, &mut out2).unwrap();
        assert_eq!(out2, flows);
        assert_eq!(collector.malformed_sets, 2);
    }

    #[test]
    fn broken_template_record_keeps_earlier_templates() {
        // A template set holding one valid FLOW_FIELDS template followed
        // by a record with an in-range id but a field count overrunning
        // the set: the good template is learned, the tail counted.
        let mut msg = Vec::new();
        msg.put_u16(VERSION);
        msg.put_u16(0);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u32(0);
        let tmpl_body = 4 + FLOW_FIELDS.len() * 4 + 4; // good record + bad header
        msg.put_u16(TEMPLATE_SET_ID);
        msg.put_u16((4 + tmpl_body) as u16);
        msg.put_u16(FLOW_TEMPLATE_ID);
        msg.put_u16(FLOW_FIELDS.len() as u16);
        for &(ie, len) in FLOW_FIELDS {
            msg.put_u16(ie);
            msg.put_u16(len);
        }
        msg.put_u16(300); // second template record ...
        msg.put_u16(500); // ... claims 500 fields with none present
                          // Data set for the good template.
        msg.put_u16(FLOW_TEMPLATE_ID);
        msg.put_u16((4 + FLOW_RECORD_LEN) as u16);
        msg.put_slice(&sample_flow(3).encode());
        let total = msg.len() as u16;
        msg[2..4].copy_from_slice(&total.to_be_bytes());
        let mut collector = Collector::new();
        let mut out = Vec::new();
        collector.decode_message(&msg, &mut out).unwrap();
        assert_eq!(out, vec![sample_flow(3)]);
        assert_eq!(collector.malformed_sets, 1);
        assert_eq!(collector.skipped_sets(), 1);
    }

    #[test]
    fn foreign_template_records_are_skipped() {
        // Build a message with a foreign template (one 2-byte field) and
        // a matching data set with 3 records.
        let mut msg = Vec::new();
        msg.put_u16(VERSION);
        msg.put_u16(0);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u16(TEMPLATE_SET_ID);
        msg.put_u16(4 + 4 + 4);
        msg.put_u16(300);
        msg.put_u16(1);
        msg.put_u16(7); // sourceTransportPort only
        msg.put_u16(2);
        msg.put_u16(300);
        msg.put_u16(4 + 6);
        msg.put_slice(&[0u8; 6]);
        let total = msg.len() as u16;
        msg[2..4].copy_from_slice(&total.to_be_bytes());
        let mut collector = Collector::new();
        let mut out = Vec::new();
        collector.decode_message(&msg, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(collector.skipped_records, 3);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut seq = 0;
        let mut msg = encode_messages(&[sample_flow(1)], 1, 1, &mut seq, 10).remove(0);
        msg[0..2].copy_from_slice(&9u16.to_be_bytes());
        let mut collector = Collector::new();
        assert_eq!(
            collector.decode_message(&msg, &mut Vec::new()).unwrap_err(),
            WireError::Version
        );
    }

    #[test]
    fn truncated_message_rejected() {
        let mut seq = 0;
        let msg = encode_messages(&[sample_flow(1)], 1, 1, &mut seq, 10).remove(0);
        let mut collector = Collector::new();
        assert_eq!(
            collector
                .decode_message(&msg[..msg.len() - 5], &mut Vec::new())
                .unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn datagram_with_multiple_whole_messages_decodes() {
        let flows: Vec<IpfixFlow> = (0..10).map(sample_flow).collect();
        let mut seq = 0;
        let datagram: Vec<u8> = encode_messages(&flows, 42, 7, &mut seq, 4)
            .into_iter()
            .flatten()
            .collect();
        let mut collector = Collector::new();
        let mut out = Vec::new();
        assert_eq!(collector.decode_datagram(&datagram, &mut out).unwrap(), 3);
        assert_eq!(out, flows);
    }

    #[test]
    fn datagram_truncated_tail_rejects_whole_datagram() {
        let flows: Vec<IpfixFlow> = (0..8).map(sample_flow).collect();
        let mut seq = 0;
        let mut datagram: Vec<u8> = encode_messages(&flows, 42, 7, &mut seq, 4)
            .into_iter()
            .flatten()
            .collect();
        datagram.truncate(datagram.len() - 5); // tear the second message
        let mut collector = Collector::new();
        let mut out = vec![sample_flow(99)];
        assert!(collector.decode_datagram(&datagram, &mut out).is_err());
        assert_eq!(
            out,
            vec![sample_flow(99)],
            "a rejected datagram leaks no records, even from its good first message"
        );
    }

    #[test]
    fn datagram_trailing_garbage_rejects_whole_datagram() {
        let mut seq = 0;
        let mut datagram = encode_messages(&[sample_flow(0)], 1, 1, &mut seq, 10).remove(0);
        datagram.extend_from_slice(&[0xde, 0xad, 0xbe]); // < header size
        let mut collector = Collector::new();
        let mut out = Vec::new();
        assert_eq!(
            collector.decode_datagram(&datagram, &mut out).unwrap_err(),
            WireError::Malformed
        );
        assert!(out.is_empty());
    }

    #[test]
    fn empty_datagram_rejected() {
        let mut collector = Collector::new();
        assert_eq!(
            collector.decode_datagram(&[], &mut Vec::new()).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn datagram_wrong_version_rejected_without_desync() {
        // Datagram 1: [good message][wrong-version message] → rejected,
        // but the template from the good message is retained (monotone),
        // so datagram 2 — data set only — still decodes on this session.
        let mut seq = 0;
        let good = encode_messages(&[sample_flow(0)], 1, 1, &mut seq, 10).remove(0);
        let mut bad = good.clone();
        bad[0..2].copy_from_slice(&9u16.to_be_bytes());
        let mut datagram = good.clone();
        datagram.extend_from_slice(&bad);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        assert_eq!(
            collector.decode_datagram(&datagram, &mut out).unwrap_err(),
            WireError::Version
        );
        assert!(out.is_empty());

        // Data-only message referencing the (now learned) template.
        let data_only = data_only(&[sample_flow(5)]);
        assert_eq!(collector.decode_datagram(&data_only, &mut out).unwrap(), 1);
        assert_eq!(out, vec![sample_flow(5)], "session not desynced");
    }

    #[test]
    fn datagram_heartbeat_is_one_message() {
        // A template-only message (no flows) is a legitimate datagram.
        let mut seq = 0;
        let datagram = encode_messages(&[], 1, 1, &mut seq, 10).remove(0);
        let mut collector = Collector::new();
        let mut out = Vec::new();
        assert_eq!(collector.decode_datagram(&datagram, &mut out).unwrap(), 1);
        assert!(out.is_empty());
    }

    /// A message of one template set holding one record header with no
    /// fields: a withdrawal of `template_id` (RFC 7011 §8.1).
    fn withdrawal(template_id: u16) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.put_u16(VERSION);
        msg.put_u16(16 + 8);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u16(TEMPLATE_SET_ID);
        msg.put_u16(8);
        msg.put_u16(template_id);
        msg.put_u16(0);
        msg
    }

    /// A message holding only a data set for the flow template.
    fn data_only(flows: &[IpfixFlow]) -> Vec<u8> {
        let mut msg = Vec::new();
        msg.put_u16(VERSION);
        msg.put_u16((16 + 4 + flows.len() * FLOW_RECORD_LEN) as u16);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u32(0);
        msg.put_u16(FLOW_TEMPLATE_ID);
        msg.put_u16((4 + flows.len() * FLOW_RECORD_LEN) as u16);
        for flow in flows {
            msg.put_slice(&flow.encode());
        }
        msg
    }

    #[test]
    fn a_withdrawn_template_counts_its_data_as_unknown() {
        let flows = [sample_flow(0), sample_flow(1)];
        let mut collector = Collector::new();
        let mut out = Vec::new();
        let template_and_data = encode_messages(&flows, 1, 1, &mut 0, 10).remove(0);
        collector
            .decode_message(&template_and_data, &mut out)
            .unwrap();
        assert_eq!(out, flows);
        collector
            .decode_message(&withdrawal(FLOW_TEMPLATE_ID), &mut out)
            .unwrap();
        collector
            .decode_message(&data_only(&flows), &mut out)
            .unwrap();
        assert_eq!(out, flows, "no record of a withdrawn template");
        assert_eq!(collector.unknown_sets, 1, "the data set is unknown");
        assert_eq!(collector.skipped_records, 0);
        assert_eq!(collector.malformed_sets, 0);
        // A fresh definition brings the id back.
        collector
            .decode_message(&template_and_data, &mut out)
            .unwrap();
        assert_eq!(out.len(), 2 * flows.len());
    }

    #[test]
    fn a_withdraw_all_record_forgets_every_template_of_the_session() {
        let mut collector = Collector::new();
        let mut out = Vec::new();
        for m in &encode_messages(&[sample_flow(0)], 1, 1, &mut 0, 10) {
            collector.decode_message(m, &mut out).unwrap();
        }
        // A second, foreign template, learned beside the flow template.
        let mut foreign = Vec::new();
        foreign.put_u16(VERSION);
        foreign.put_u16(16 + 12);
        foreign.put_slice(&[0; 12]);
        foreign.put_u16(TEMPLATE_SET_ID);
        foreign.put_u16(12);
        foreign.put_slice(&[0x01, 0x2c, 0, 1, 0, 7, 0, 2]); // id 300: one port
        collector.decode_message(&foreign, &mut out).unwrap();
        assert_eq!((collector.known.len(), collector.foreign.len()), (1, 1));
        collector
            .decode_message(&withdrawal(TEMPLATE_SET_ID), &mut out)
            .unwrap();
        assert_eq!(collector.malformed_sets, 0, "withdraw-all is well formed");
        assert!(collector.known.is_empty() && collector.foreign.is_empty());
        collector
            .decode_message(&data_only(&[sample_flow(1)]), &mut out)
            .unwrap();
        assert_eq!(out, [sample_flow(0)]);
        assert_eq!(collector.unknown_sets, 1);
    }

    #[test]
    fn a_fieldless_record_under_a_reserved_id_is_malformed() {
        let mut collector = Collector::new();
        collector
            .decode_message(&withdrawal(255), &mut Vec::new())
            .unwrap();
        assert_eq!(collector.malformed_sets, 1);
    }

    #[test]
    fn record_len_constant_matches_fields() {
        let sum: usize = FLOW_FIELDS.iter().map(|&(_, l)| l as usize).sum();
        assert_eq!(sum, FLOW_RECORD_LEN);
    }
}
