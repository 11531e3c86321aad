//! Property-based roundtrip tests for the wire formats.

use mt_types::Ipv4;
use mt_wire::ipfix::{self, IpfixFlow};
use mt_wire::pcap;
use mt_wire::{ipv4, tcp, udp, IpProtocol};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4> {
    any::<u32>().prop_map(Ipv4)
}

fn arb_flow() -> impl Strategy<Value = IpfixFlow> {
    (
        arb_addr(),
        arb_addr(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        0u8..=0x3f,
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(src, dst, src_port, dst_port, protocol, tcp_flags, packets, octets, start_secs)| {
                IpfixFlow {
                    src,
                    dst,
                    src_port,
                    dst_port,
                    protocol,
                    tcp_flags,
                    packets,
                    octets,
                    start_secs,
                }
            },
        )
}

/// A fixed marker record used to prove entry contents survive rollbacks.
fn arb_sentinel() -> IpfixFlow {
    IpfixFlow {
        src: Ipv4(0xdead_beef),
        dst: Ipv4(0xfeed_f00d),
        src_port: 1,
        dst_port: 2,
        protocol: 6,
        tcp_flags: 0x12,
        packets: 7,
        octets: 700,
        start_secs: 9,
    }
}

/// What a collector hands on from `flows`: every record but those
/// claiming zero packets, which it counts in `skipped_records` instead.
fn delivered(flows: &[IpfixFlow]) -> (Vec<IpfixFlow>, u64) {
    let kept: Vec<IpfixFlow> = flows.iter().filter(|f| f.packets > 0).copied().collect();
    let skipped = (flows.len() - kept.len()) as u64;
    (kept, skipped)
}

proptest! {
    #[test]
    fn ipv4_emit_parse_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = ipv4::Repr {
            src,
            dst,
            protocol: IpProtocol::Udp,
            payload_len: payload.len(),
            ttl,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut packet = ipv4::Packet::new_unchecked(&mut buf);
        repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(&payload);
        // Payload writes do not disturb the header checksum.
        let packet = ipv4::Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(ipv4::Repr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn tcp_emit_parse_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        flag_bits in 0u8..=0x3f,
        mss in proptest::option::of(500u16..=9000),
    ) {
        let repr = tcp::Repr {
            src_port,
            dst_port,
            seq,
            ack,
            flags: tcp::Flags(flag_bits),
            window,
            mss,
            payload_len: 0,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        let mut seg = tcp::Segment::new_unchecked(&mut buf);
        repr.emit(&mut seg, src, dst);
        let seg = tcp::Segment::new_checked(&buf[..]).unwrap();
        prop_assert!(seg.verify_checksum(src, dst));
        prop_assert_eq!(tcp::Repr::parse(&seg, src, dst).unwrap(), repr);
    }

    #[test]
    fn udp_emit_parse_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = udp::Repr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.buffer_len()];
        buf[udp::HEADER_LEN..].copy_from_slice(&payload);
        let mut dg = udp::Datagram::new_unchecked(&mut buf);
        repr.emit(&mut dg, src, dst);
        let dg = udp::Datagram::new_checked(&buf[..]).unwrap();
        prop_assert!(dg.verify_checksum(src, dst));
        prop_assert_eq!(udp::Repr::parse(&dg, src, dst).unwrap(), repr);
    }

    /// RFC 768: the checksum field value `0x0000` is reserved to mean
    /// "no checksum computed", so an emitter whose one's-complement sum
    /// comes out zero must transmit `0xffff` instead. Whatever the
    /// inputs, the emitted field is never zero — and always verifies.
    #[test]
    fn udp_emitted_checksum_is_never_the_no_checksum_sentinel(
        src in arb_addr(),
        dst in arb_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let repr = udp::Repr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.buffer_len()];
        buf[udp::HEADER_LEN..].copy_from_slice(&payload);
        let mut dg = udp::Datagram::new_unchecked(&mut buf);
        repr.emit(&mut dg, src, dst);
        let field = u16::from_be_bytes([buf[6], buf[7]]);
        prop_assert_ne!(field, 0, "0x0000 on the wire would read as 'no checksum'");
        let dg = udp::Datagram::new_checked(&buf[..]).unwrap();
        prop_assert!(dg.verify_checksum(src, dst));
    }

    /// RFC 768's receive-side special case: a stored checksum of
    /// `0x0000` means the sender computed none, and must be accepted —
    /// for any ports/addresses, not just all-zero buffers.
    #[test]
    fn udp_zero_checksum_means_unchecksummed_and_is_accepted(
        src in arb_addr(),
        dst in arb_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let repr = udp::Repr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; repr.buffer_len()];
        buf[udp::HEADER_LEN..].copy_from_slice(&payload);
        let mut dg = udp::Datagram::new_unchecked(&mut buf);
        repr.emit(&mut dg, src, dst);
        // Blank the checksum field: "not computed".
        buf[6] = 0;
        buf[7] = 0;
        let dg = udp::Datagram::new_checked(&buf[..]).unwrap();
        prop_assert!(dg.verify_checksum(src, dst), "zero checksum is 'none', not 'invalid'");
        prop_assert_eq!(udp::Repr::parse(&dg, src, dst).unwrap(), repr);
    }

    #[test]
    fn ipfix_roundtrip_any_chunking(
        flows in proptest::collection::vec(arb_flow(), 0..50),
        chunk in 1usize..=16,
    ) {
        let mut seq = 0u32;
        let msgs = ipfix::encode_messages(&flows, 123, 9, &mut seq, chunk);
        prop_assert_eq!(seq as usize, flows.len());
        let mut collector = ipfix::Collector::new();
        let mut out = Vec::new();
        for m in &msgs {
            collector.decode_message(m, &mut out).unwrap();
        }
        let (kept, skipped) = delivered(&flows);
        prop_assert_eq!(out, kept);
        prop_assert_eq!(collector.skipped_records, skipped);
    }

    #[test]
    fn ipfix_decoder_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut collector = ipfix::Collector::new();
        let _ = collector.decode_message(&noise, &mut Vec::new());
    }

    #[test]
    fn ipfix_datagram_roundtrip_any_packing(
        flows in proptest::collection::vec(arb_flow(), 0..50),
        chunk in 1usize..=16,
    ) {
        // A datagram holding all the messages of an export batch decodes
        // to exactly the input, whatever the per-message record packing.
        let mut seq = 0u32;
        let msgs = ipfix::encode_messages(&flows, 123, 9, &mut seq, chunk);
        let expect_msgs = msgs.len() as u64;
        let datagram: Vec<u8> = msgs.into_iter().flatten().collect();
        let mut collector = ipfix::Collector::new();
        let mut out = Vec::new();
        prop_assert_eq!(collector.decode_datagram(&datagram, &mut out).unwrap(), expect_msgs);
        let (kept, skipped) = delivered(&flows);
        prop_assert_eq!(out, kept);
        prop_assert_eq!(collector.skipped_records, skipped);
    }

    #[test]
    fn ipfix_datagram_all_or_nothing_under_mutation(
        flows in proptest::collection::vec(arb_flow(), 1..20),
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12),
        truncate_by in 0usize..40,
        extend_by in 0usize..20,
    ) {
        // Start from a valid multi-message datagram; flip bytes, tear the
        // tail, append garbage. Whatever happens, decode_datagram must
        // not panic, and on Err the output buffer must be exactly what it
        // was on entry — no partial datagram ever leaks records.
        let mut seq = 0u32;
        let mut datagram: Vec<u8> = ipfix::encode_messages(&flows, 7, 3, &mut seq, 4)
            .into_iter()
            .flatten()
            .collect();
        for (pos, val) in &mutations {
            let idx = *pos as usize % datagram.len();
            datagram[idx] ^= *val;
        }
        let keep = datagram.len().saturating_sub(truncate_by);
        datagram.truncate(keep);
        datagram.extend(std::iter::repeat_n(0xAAu8, extend_by));
        let mut collector = ipfix::Collector::new();
        let sentinel = arb_sentinel();
        let mut out = vec![sentinel];
        if collector.decode_datagram(&datagram, &mut out).is_err() {
            prop_assert_eq!(out, vec![sentinel], "Err must roll the buffer back");
        } else {
            prop_assert_eq!(out[0], sentinel, "entry records are never touched");
        }
        // The session survives: a clean datagram decodes afterwards.
        let mut seq2 = 0u32;
        let clean: Vec<u8> = ipfix::encode_messages(&flows, 8, 3, &mut seq2, 4)
            .into_iter()
            .flatten()
            .collect();
        let mut out2 = Vec::new();
        prop_assert!(collector.decode_datagram(&clean, &mut out2).is_ok());
        prop_assert_eq!(out2, delivered(&flows).0);
    }

    #[test]
    fn ipfix_decoder_never_panics_on_mutated_messages(
        flows in proptest::collection::vec(arb_flow(), 1..20),
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
        truncate_by in 0usize..40,
    ) {
        // Start from a valid message, flip arbitrary bytes and optionally
        // tear the tail off. Decoding may fail (header damage) or skip
        // sets (body damage), but must never panic — and whatever records
        // do come out must look structurally sane.
        let mut seq = 0u32;
        let mut msg = ipfix::encode_messages(&flows, 7, 3, &mut seq, 8).remove(0);
        for (pos, val) in &mutations {
            let idx = *pos as usize % msg.len();
            msg[idx] ^= *val;
        }
        let keep = msg.len().saturating_sub(truncate_by).max(1);
        msg.truncate(keep);
        let mut collector = ipfix::Collector::new();
        let mut out = Vec::new();
        let _ = collector.decode_message(&msg, &mut out);
        // Counters only ever grow; a second decode of the same bytes must
        // also be panic-free on the now-warm template session.
        let _ = collector.decode_message(&msg, &mut Vec::new());
    }

    #[test]
    fn ipfix_body_damage_is_not_fatal(
        flows in proptest::collection::vec(arb_flow(), 1..20),
        mutations in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..8),
    ) {
        // Damage strictly inside the body (past the 16-byte header) with
        // the declared length left intact: the collector must always
        // accept the message at the framing level (Ok), whatever it had
        // to skip inside.
        let mut seq = 0u32;
        let mut msg = ipfix::encode_messages(&flows, 7, 3, &mut seq, 8).remove(0);
        let body_len = msg.len() - 16;
        for (pos, val) in &mutations {
            let idx = 16 + *pos as usize % body_len;
            // Never touch bytes 2..4 (there are none in range; indices
            // start at 16) so the declared message length stays valid.
            msg[idx] ^= *val;
        }
        let mut collector = ipfix::Collector::new();
        let mut out = Vec::new();
        prop_assert!(collector.decode_message(&msg, &mut out).is_ok());
    }

    #[test]
    fn pcap_roundtrip(
        packets in proptest::collection::vec(
            (any::<u32>(), 0u32..1_000_000, proptest::collection::vec(any::<u8>(), 0..80)),
            0..20,
        ),
    ) {
        let mut file = Vec::new();
        {
            let mut w = pcap::Writer::new(&mut file, pcap::LINKTYPE_RAW).unwrap();
            for (sec, usec, data) in &packets {
                w.write_packet(*sec, *usec, data).unwrap();
            }
            w.finish().unwrap();
        }
        let r = pcap::Reader::new(&file[..]).unwrap();
        let records: Vec<pcap::Record> = r.records().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(records.len(), packets.len());
        for (rec, (sec, usec, data)) in records.iter().zip(&packets) {
            prop_assert_eq!(rec.ts_sec, *sec);
            prop_assert_eq!(rec.ts_usec, *usec);
            prop_assert_eq!(&rec.data, data);
        }
    }

    #[test]
    fn pcap_reader_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..100)) {
        if let Ok(mut r) = pcap::Reader::new(&noise[..]) {
            while let Ok(Some(_)) = r.next_record() {}
        }
    }

    #[test]
    fn ipv4_checked_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..60)) {
        if let Ok(p) = ipv4::Packet::new_checked(&noise[..]) {
            let _ = p.payload();
            let _ = p.verify_checksum();
        }
    }

    #[test]
    fn tcp_checked_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..60)) {
        if let Ok(s) = tcp::Segment::new_checked(&noise[..]) {
            let _ = s.payload();
            let _ = s.options();
        }
    }
}
