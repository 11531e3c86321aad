//! IPFIX-lite: the RFC 7011 subset the IXP vantage points use to export
//! sampled flow records.
//!
//! Implemented: the 16-byte message header (version 10), template sets
//! (set id 2) with IANA information elements, and data sets keyed by
//! template id. Not implemented (not needed by the workspace): options
//! templates, enterprise-specific elements, variable-length fields,
//! template withdrawal.
//!
//! The exporter emits the template set at the start of every message, as
//! RFC 7011 permits (UDP transports re-send templates periodically; doing
//! it per message keeps every message self-describing, which matters for
//! a file-based interchange). The collector learns templates as they
//! appear and rejects data sets that reference an unknown template.

use crate::{Result, WireError};
use bytes::{Buf, BufMut};

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
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.src.0);
        buf.put_u32(self.dst.0);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u8(self.protocol);
        buf.put_u8(self.tcp_flags);
        buf.put_u64(self.packets);
        buf.put_u64(self.octets);
        buf.put_u32(self.start_secs);
    }

    fn decode<B: Buf>(buf: &mut B) -> IpfixFlow {
        IpfixFlow {
            src: mt_types::Ipv4(buf.get_u32()),
            dst: mt_types::Ipv4(buf.get_u32()),
            src_port: buf.get_u16(),
            dst_port: buf.get_u16(),
            protocol: buf.get_u8(),
            tcp_flags: buf.get_u8(),
            packets: buf.get_u64(),
            octets: buf.get_u64(),
            start_secs: buf.get_u32(),
        }
    }
}

/// Encoded length of the template set: set header, template header,
/// one `(ie, len)` pair per field.
const TEMPLATE_SET_LEN: usize = 4 + 4 + FLOW_FIELDS.len() * 4;

/// Bytes of a message before its first data record: message header,
/// template set, data set header.
const MESSAGE_OVERHEAD: usize = 16 + TEMPLATE_SET_LEN + 4;

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
        let mut msg = Vec::with_capacity(64 + chunk.len() * FLOW_RECORD_LEN);
        // Message header; length patched at the end.
        msg.put_u16(VERSION);
        msg.put_u16(0);
        msg.put_u32(export_time);
        msg.put_u32(*sequence);
        msg.put_u32(domain);
        // Template set.
        msg.put_u16(TEMPLATE_SET_ID);
        msg.put_u16(TEMPLATE_SET_LEN as u16);
        msg.put_u16(FLOW_TEMPLATE_ID);
        msg.put_u16(FLOW_FIELDS.len() as u16);
        for &(ie, len) in FLOW_FIELDS {
            msg.put_u16(ie);
            msg.put_u16(len);
        }
        // Data set.
        if !chunk.is_empty() {
            msg.put_u16(FLOW_TEMPLATE_ID);
            msg.put_u16((4 + chunk.len() * FLOW_RECORD_LEN) as u16);
            for flow in chunk {
                flow.encode(&mut msg);
            }
        }
        let total = msg.len() as u16;
        msg[2..4].copy_from_slice(&total.to_be_bytes());
        *sequence = sequence.wrapping_add(chunk.len() as u32);
        messages.push(msg);
    }
    messages
}

/// A collector that consumes IPFIX messages and yields flow records.
///
/// Learns template definitions from template sets; a template whose field
/// layout differs from [`FLOW_FIELDS`] is remembered but its data records
/// are skipped (we only understand our own layout). Unknown set ids are
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
    /// Template id → record length, for templates matching our layout.
    known: std::collections::HashMap<u16, usize>,
    /// Template id → record length, for templates with a foreign layout.
    foreign: std::collections::HashMap<u16, usize>,
    /// Count of data records skipped: those of a foreign template, and
    /// those claiming zero packets (a flow record describes at least
    /// one packet, and the fold divides octets by packets).
    pub skipped_records: u64,
    /// Count of data sets skipped because their template was never seen.
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
    pub fn decode_message(&mut self, mut msg: &[u8], out: &mut Vec<IpfixFlow>) -> Result<()> {
        if msg.len() < 16 {
            return Err(WireError::Truncated);
        }
        let declared = u16::from_be_bytes([msg[2], msg[3]]) as usize;
        if u16::from_be_bytes([msg[0], msg[1]]) != VERSION {
            return Err(WireError::Version);
        }
        if declared < 16 || declared > msg.len() {
            return Err(WireError::Truncated);
        }
        msg = &msg[..declared];
        let mut body = &msg[16..];
        while body.remaining() >= 4 {
            let set_id = body.get_u16();
            let set_len = body.get_u16() as usize;
            if set_len < 4 || set_len - 4 > body.remaining() {
                // The set boundary is lost; nothing after this point in
                // the message can be framed. Skip the remainder.
                self.malformed_sets += 1;
                return Ok(());
            }
            let (set_body, rest) = body.split_at(set_len - 4);
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
        while set.remaining() >= 4 {
            let template_id = set.get_u16();
            let field_count = set.get_u16() as usize;
            if template_id < 256 || set.remaining() < field_count * 4 {
                self.malformed_sets += 1;
                return;
            }
            self.scratch_fields.clear();
            let mut record_len = 0usize;
            let mut enterprise = false;
            for _ in 0..field_count {
                let ie = set.get_u16();
                let len = set.get_u16();
                // Enterprise elements are out of scope.
                enterprise |= ie & 0x8000 != 0;
                record_len += len as usize;
                self.scratch_fields.push((ie, len));
            }
            if enterprise {
                self.malformed_sets += 1;
                return;
            }
            if self.scratch_fields == FLOW_FIELDS {
                self.known.insert(template_id, record_len);
                self.foreign.remove(&template_id);
            } else {
                self.foreign.insert(template_id, record_len);
                self.known.remove(&template_id);
            }
        }
    }

    fn decode_data_set(&mut self, template_id: u16, mut set: &[u8], out: &mut Vec<IpfixFlow>) {
        if let Some(&len) = self.known.get(&template_id) {
            while set.remaining() >= len {
                let flow = IpfixFlow::decode(&mut set);
                // A flow record describes at least one packet: one that
                // claims none has no mean size and is no traffic.
                if flow.packets == 0 {
                    self.skipped_records += 1;
                } else {
                    out.push(flow);
                }
            }
        } else if let Some(&len) = self.foreign.get(&template_id) {
            if let Some(skipped) = set.remaining().checked_div(len) {
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
        sample_flow(3).encode(&mut msg);
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
        let mut data_only = Vec::new();
        data_only.put_u16(VERSION);
        data_only.put_u16(0);
        data_only.put_u32(0);
        data_only.put_u32(1);
        data_only.put_u32(1);
        data_only.put_u16(FLOW_TEMPLATE_ID);
        data_only.put_u16((4 + FLOW_RECORD_LEN) as u16);
        sample_flow(5).encode(&mut data_only);
        let total = data_only.len() as u16;
        data_only[2..4].copy_from_slice(&total.to_be_bytes());
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

    #[test]
    fn record_len_constant_matches_fields() {
        let sum: usize = FLOW_FIELDS.iter().map(|&(_, l)| l as usize).sum();
        assert_eq!(sum, FLOW_RECORD_LEN);
    }
}
