//! The codec as it read and wrote bytes through the `bytes` cursor
//! traits, kept as the oracle for the fixed-offset codec.
//!
//! The byte reads and writes below are the cursor codec's, unchanged.
//! What a template record *means* — definition, withdrawal, rejection —
//! is [`Collector::apply_template`], shared with the codec under test,
//! so the proptests compare how bytes are framed and read, not the
//! template bookkeeping.

use super::{
    Collector, IpfixFlow, FLOW_FIELDS, FLOW_RECORD_LEN, FLOW_TEMPLATE_ID, MAX_RECORDS_PER_MESSAGE,
    TEMPLATE_SET_ID, TEMPLATE_SET_LEN, VERSION,
};
use crate::{Result, WireError};
use bytes::{Buf, BufMut};

fn encode_flow<B: BufMut>(flow: &IpfixFlow, buf: &mut B) {
    buf.put_u32(flow.src.0);
    buf.put_u32(flow.dst.0);
    buf.put_u16(flow.src_port);
    buf.put_u16(flow.dst_port);
    buf.put_u8(flow.protocol);
    buf.put_u8(flow.tcp_flags);
    buf.put_u64(flow.packets);
    buf.put_u64(flow.octets);
    buf.put_u32(flow.start_secs);
}

fn decode_flow<B: Buf>(buf: &mut B) -> IpfixFlow {
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

/// The cursor codec's [`super::encode_messages`].
pub(super) fn encode_messages(
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
                encode_flow(flow, &mut msg);
            }
        }
        let total = msg.len() as u16;
        msg[2..4].copy_from_slice(&total.to_be_bytes());
        *sequence = sequence.wrapping_add(chunk.len() as u32);
        messages.push(msg);
    }
    messages
}

/// The cursor codec's [`Collector::decode_message`].
pub(super) fn decode_message(
    c: &mut Collector,
    mut msg: &[u8],
    out: &mut Vec<IpfixFlow>,
) -> Result<()> {
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
            c.malformed_sets += 1;
            return Ok(());
        }
        let (set_body, rest) = body.split_at(set_len - 4);
        body = rest;
        match set_id {
            TEMPLATE_SET_ID => learn_templates(c, set_body),
            id if id >= 256 => decode_data_set(c, id, set_body, out),
            _ => {} // options templates etc.: skipped
        }
    }
    if !body.is_empty() {
        // Trailing bytes shorter than a set header.
        c.malformed_sets += 1;
    }
    Ok(())
}

/// The cursor codec's [`Collector::decode_datagram`], over
/// [`decode_message`].
pub(super) fn decode_datagram(
    c: &mut Collector,
    datagram: &[u8],
    out: &mut Vec<IpfixFlow>,
) -> Result<u64> {
    let entry = out.len();
    let mut pos = 0usize;
    let mut messages = 0u64;
    while datagram.len() - pos >= 16 {
        let declared = u16::from_be_bytes([datagram[pos + 2], datagram[pos + 3]]) as usize;
        if declared < 16 || declared > datagram.len() - pos {
            out.truncate(entry);
            return Err(WireError::Truncated);
        }
        if let Err(e) = decode_message(c, &datagram[pos..pos + declared], out) {
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

fn learn_templates(c: &mut Collector, mut set: &[u8]) {
    while set.remaining() >= 4 {
        let template_id = set.get_u16();
        let field_count = set.get_u16() as usize;
        if set.remaining() < field_count * 4 {
            c.malformed_sets += 1;
            return;
        }
        c.scratch_fields.clear();
        for _ in 0..field_count {
            let ie = set.get_u16();
            let len = set.get_u16();
            c.scratch_fields.push((ie, len));
        }
        if !c.apply_template(template_id) {
            c.malformed_sets += 1;
            return;
        }
    }
}

fn decode_data_set(c: &mut Collector, template_id: u16, mut set: &[u8], out: &mut Vec<IpfixFlow>) {
    if c.known.contains(&template_id) {
        while set.remaining() >= FLOW_RECORD_LEN {
            let flow = decode_flow(&mut set);
            if flow.packets == 0 {
                c.skipped_records += 1;
            } else {
                out.push(flow);
            }
        }
    } else if let Some(&len) = c.foreign.get(&template_id) {
        if let Some(skipped) = set.remaining().checked_div(len) {
            c.skipped_records += skipped as u64;
        }
    } else {
        c.unknown_sets += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A splitmix64 stream: one proptest seed grows a whole session of
    /// messages, with the structure the vendored proptest cannot build.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }

        /// Under `max` random bytes.
        fn noise(&mut self, max: u64) -> Vec<u8> {
            let n = self.below(max) as usize;
            self.bytes(n)
        }

        fn flow(&mut self) -> IpfixFlow {
            IpfixFlow {
                src: mt_types::Ipv4(self.next() as u32),
                dst: mt_types::Ipv4(self.next() as u32),
                src_port: self.next() as u16,
                dst_port: self.next() as u16,
                protocol: self.next() as u8,
                tcp_flags: self.next() as u8,
                // A zero-packet record is skipped and counted.
                packets: if self.one_in(8) { 0 } else { self.next() },
                octets: self.next(),
                start_secs: self.next() as u32,
            }
        }

        fn flows(&mut self, max: u64) -> Vec<IpfixFlow> {
            (0..self.below(max + 1)).map(|_| self.flow()).collect()
        }

        /// A template id: reserved, the withdraw-all id, or a data id.
        fn template_id(&mut self) -> u16 {
            [2, 3, 255, 256, 256, 257, 300][self.below(7) as usize]
        }

        /// One template set's body: definitions of the flow layout and
        /// of foreign ones (some with enterprise elements, some with
        /// zero-length fields), withdrawals, and padding.
        fn template_set(&mut self) -> Vec<u8> {
            let mut body = Vec::new();
            for _ in 0..=self.below(3) {
                body.put_u16(self.template_id());
                let fields: Vec<(u16, u16)> = match self.below(4) {
                    0 | 1 => FLOW_FIELDS.to_vec(),
                    2 => Vec::new(), // a withdrawal
                    _ => (0..=self.below(4))
                        .map(|_| {
                            let ie = [7, 8, 0x8001][self.below(3) as usize];
                            (ie, self.below(9) as u16)
                        })
                        .collect(),
                };
                body.put_u16(fields.len() as u16);
                for (ie, len) in fields {
                    body.put_u16(ie);
                    body.put_u16(len);
                }
            }
            body.extend(self.noise(4));
            body
        }

        /// One set, header included.
        fn set(&mut self) -> Vec<u8> {
            let (id, body) = match self.below(5) {
                0 => (TEMPLATE_SET_ID, self.template_set()),
                1 | 2 => {
                    let mut body = Vec::new();
                    for flow in self.flows(6) {
                        encode_flow(&flow, &mut body);
                    }
                    body.extend(self.noise(FLOW_RECORD_LEN as u64));
                    (self.template_id(), body)
                }
                3 => (self.template_id(), self.noise(40)),
                _ => (self.next() as u16, self.noise(12)),
            };
            let mut set = Vec::new();
            set.put_u16(id);
            set.put_u16((4 + body.len()) as u16);
            set.extend(body);
            set
        }

        /// A well-framed message: the encoder's, or one assembled from
        /// random sets.
        fn message(&mut self) -> Vec<u8> {
            if self.one_in(3) {
                let flows = self.flows(10);
                let per = 1 + self.below(8) as usize;
                return encode_messages(&flows, 1, 2, &mut 3, per).remove(0);
            }
            let mut msg = Vec::new();
            msg.put_u16(VERSION);
            msg.put_u16(0);
            msg.extend(self.bytes(12));
            for _ in 0..self.below(5) {
                msg.extend(self.set());
            }
            let total = msg.len() as u16;
            msg[2..4].copy_from_slice(&total.to_be_bytes());
            msg
        }

        /// Damage of every kind: flipped bytes (header ones included),
        /// a torn tail, appended garbage, or plain noise.
        fn damage(&mut self, mut msg: Vec<u8>) -> Vec<u8> {
            match self.below(6) {
                0 => self.noise(80),
                1 => {
                    let keep = self.below(msg.len() as u64 + 1) as usize;
                    msg.truncate(keep);
                    msg
                }
                2 => {
                    msg.extend(self.noise(20));
                    msg
                }
                3 | 4 => {
                    for _ in 0..=self.below(6) {
                        let at = self.below(msg.len() as u64) as usize;
                        msg[at] ^= 1 + self.below(255) as u8;
                    }
                    msg
                }
                _ => msg,
            }
        }

        /// The next input of a session: a message, damaged or not.
        fn input(&mut self) -> Vec<u8> {
            let msg = self.message();
            if self.one_in(2) {
                msg
            } else {
                self.damage(msg)
            }
        }
    }

    /// What a decode left behind that the oracle must match.
    fn state(c: &Collector) -> (u64, u64, u64, Vec<u16>, Vec<(u16, usize)>) {
        let mut known: Vec<u16> = c.known.iter().copied().collect();
        let mut foreign: Vec<(u16, usize)> = c.foreign.iter().map(|(&k, &v)| (k, v)).collect();
        known.sort_unstable();
        foreign.sort_unstable();
        (
            c.skipped_records,
            c.unknown_sets,
            c.malformed_sets,
            known,
            foreign,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn messages_decode_as_the_oracle_decodes(seed in any::<u64>(), len in 1usize..12) {
            let mut g = Gen(seed);
            let (mut new, mut old) = (Collector::new(), Collector::new());
            let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
            for _ in 0..len {
                let msg = g.input();
                let got = new.decode_message(&msg, &mut new_out);
                let want = decode_message(&mut old, &msg, &mut old_out);
                prop_assert_eq!(got, want, "result for {:02x?}", msg);
                prop_assert_eq!(&new_out, &old_out, "records for {:02x?}", msg);
                prop_assert_eq!(state(&new), state(&old), "state for {:02x?}", msg);
            }
        }

        #[test]
        fn datagrams_decode_as_the_oracle_decodes(seed in any::<u64>(), len in 1usize..8) {
            let mut g = Gen(seed);
            let (mut new, mut old) = (Collector::new(), Collector::new());
            // Records left by earlier datagrams: a rollback must keep them.
            let (mut new_out, mut old_out) = (vec![g.flow()], Vec::new());
            old_out.clone_from(&new_out);
            for _ in 0..len {
                let mut datagram = Vec::new();
                for _ in 0..=g.below(3) {
                    datagram.extend(g.message());
                }
                if g.one_in(2) {
                    datagram = g.damage(datagram);
                }
                let got = new.decode_datagram(&datagram, &mut new_out);
                let want = decode_datagram(&mut old, &datagram, &mut old_out);
                prop_assert_eq!(got, want, "result for {:02x?}", datagram);
                prop_assert_eq!(&new_out, &old_out, "records for {:02x?}", datagram);
                prop_assert_eq!(state(&new), state(&old), "state for {:02x?}", datagram);
            }
        }

        #[test]
        fn encode_messages_writes_the_oracles_bytes(
            seed in any::<u64>(),
            n in 0u64..200,
            per in prop_oneof![1usize..=16, 100usize..=3_000],
            export_time in any::<u32>(),
            domain in any::<u32>(),
            sequence in any::<u32>(),
        ) {
            let mut g = Gen(seed);
            let flows: Vec<IpfixFlow> = (0..n).map(|_| g.flow()).collect();
            let (mut new_seq, mut old_seq) = (sequence, sequence);
            prop_assert_eq!(
                super::super::encode_messages(&flows, export_time, domain, &mut new_seq, per),
                encode_messages(&flows, export_time, domain, &mut old_seq, per)
            );
            prop_assert_eq!(new_seq, old_seq);
        }
    }

    #[test]
    fn the_generator_reaches_every_outcome() {
        // Without each of these the proptests above compare less than
        // they claim to.
        let mut g = Gen(7);
        let mut c = Collector::new();
        let (mut flows, mut errors, mut withdrawn) = (0, [0; 3], 0);
        for _ in 0..4_000 {
            let msg = g.input();
            let before = c.known.len() + c.foreign.len();
            let mut out = Vec::new();
            match decode_message(&mut c, &msg, &mut out) {
                Ok(()) => flows += out.len(),
                Err(WireError::Truncated) => errors[0] += 1,
                Err(WireError::Version) => errors[1] += 1,
                Err(_) => errors[2] += 1,
            }
            withdrawn += usize::from(c.known.len() + c.foreign.len() < before);
        }
        assert!(flows > 1_000, "{flows} records");
        assert!(errors[0] > 50 && errors[1] > 50, "{errors:?}");
        assert!(withdrawn > 50, "{withdrawn} withdrawals");
        assert!(c.skipped_records > 100 && c.unknown_sets > 100 && c.malformed_sets > 100);
    }
}
