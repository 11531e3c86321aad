//! Byte-level primitives for the store format: little-endian scalars,
//! LEB128 varints, delta-coded ascending id lists, and the FNV-1a and
//! lane checksums. Every decode path is total — malformed input comes
//! back as a [`StoreError`], never a panic or a silent misread. Besides
//! reading values, the reader can span a column — a delta list, `n`
//! varints, `n` u64 words — and check it without building its values,
//! failing exactly as reading it value by value would.

use crate::error::StoreError;

/// Appends a little-endian u16.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Writes `v` as a varint into `buf` at `*at`, the bytes
/// [`put_varint`] would append, and moves `*at` past them: an encoder
/// that has sized its columns fills each at its own offset. `buf` must
/// have [`varint_len`]`(v)` bytes from `*at`.
pub(crate) fn put_varint_at(buf: &mut [u8], at: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*at] = (v as u8) | 0x80;
        v >>= 7;
        *at += 1;
    }
    buf[*at] = v as u8;
    *at += 1;
}

/// Appends a strictly-ascending list of `len` u32 ids as the count,
/// the first id and the deltas, all varint. Deltas between consecutive
/// ids are `id[i] - id[i-1]`, which for dense slot lists makes most
/// entries one byte. Taking the ids as an iterator lets a caller write
/// a column of its rows' keys without first collecting them; `len`
/// must be the iterator's length.
pub fn put_delta_iter(out: &mut Vec<u8>, len: usize, ids: impl IntoIterator<Item = u32>) {
    put_varint(out, len as u64);
    let mut prev = 0u32;
    for (i, id) in ids.into_iter().enumerate() {
        let delta = if i == 0 { id } else { id - prev };
        put_varint(out, u64::from(delta));
        prev = id;
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the store's header checksum, and the
/// payload checksum of format version 1. Not cryptographic — it guards
/// against truncation and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Independent lanes of [`lanes64`]. A format constant: changing it
/// changes every version-2 checksum.
const LANES: usize = 4;

/// The payload checksum of format version 2: FNV-1a's xor-then-multiply
/// over little-endian u64 words, word `i` folded into lane `i mod 4`,
/// so the four multiply chains run side by side instead of one chain
/// per byte. The tail of under 32 bytes goes through [`fnv1a64`], then
/// the lanes and the length are folded in, in order.
///
/// Each lane step is a bijection of the lane's state, and so is each
/// fold, so a change confined to one 8-byte word (or to the tail)
/// always changes the sum. A multiply carries a difference only
/// upwards, so each step also rotates the lane: a flip in a word's
/// high bits reaches the low bits of the next step instead of staying
/// in the top bits, where a second flip in the same lane could cancel
/// it.
pub fn lanes64(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_BASIS; LANES];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            *lane = (*lane ^ u64::from_le_bytes(w))
                .wrapping_mul(FNV_PRIME)
                .rotate_left(29);
        }
    }
    let mut h = fnv1a64(blocks.remainder());
    for v in lanes.into_iter().chain([bytes.len() as u64]) {
        h = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The bytes not yet consumed.
    fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 varint, rejecting encodings that overflow u64.
    pub fn varint(&mut self) -> Result<u64, StoreError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            let low = u64::from(byte & 0x7f);
            if shift >= 63 && low > 1 {
                return Err(StoreError::Corrupt("varint overflows u64"));
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(StoreError::Corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a varint that must fit a u32.
    pub fn varint_u32(&mut self) -> Result<u32, StoreError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| StoreError::Corrupt("value exceeds u32"))
    }

    /// Reads a length prefix that claims at most one element per
    /// remaining byte — a cheap cap that stops a corrupt count from
    /// driving a huge allocation before the inevitable `Truncated`.
    pub fn bounded_len(&mut self) -> Result<usize, StoreError> {
        let n = self.varint()?;
        let cap = self.remaining() as u64;
        if n > cap {
            return Err(StoreError::Truncated {
                needed: n as usize,
                available: self.remaining(),
            });
        }
        Ok(n as usize)
    }

    /// Reads a strictly-ascending delta-coded u32 list written by
    /// [`put_delta_iter`].
    pub fn delta_list(&mut self) -> Result<Vec<u32>, StoreError> {
        let n = self.bounded_len()?;
        let mut out = Vec::with_capacity(n);
        self.delta_ids(n, |id| {
            out.push(id);
            Ok(())
        })?;
        Ok(out)
    }

    /// Spans a delta-coded list like [`delta_list`](Self::delta_list),
    /// with every check it makes, but collects nothing: the span keeps
    /// the list's length, its last id, and its bytes, from which
    /// [`DeltaSpan::iter`] reads the ids back. `check` may reject an id
    /// with its own error, in list order.
    pub(crate) fn delta_span(
        &mut self,
        mut check: impl FnMut(u32) -> Result<(), StoreError>,
    ) -> Result<DeltaSpan<'a>, StoreError> {
        let n = self.bounded_len()?;
        let start = self.pos;
        let mut last = None;
        self.delta_ids(n, |id| {
            last = Some(id);
            check(id)
        })?;
        Ok(DeltaSpan {
            len: n,
            last,
            deltas: Varints(&self.buf[start..self.pos]),
        })
    }

    /// Reads `n` deltas, rejecting a repeat or an overflow, and hands
    /// each id to `each` in order.
    fn delta_ids(
        &mut self,
        n: usize,
        mut each: impl FnMut(u32) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut prev = 0u32;
        for i in 0..n {
            let delta = self.varint_u32()?;
            let id = if i == 0 {
                delta
            } else {
                if delta == 0 {
                    return Err(StoreError::Corrupt("delta list not strictly ascending"));
                }
                prev.checked_add(delta)
                    .ok_or(StoreError::Corrupt("delta list overflows u32"))?
            };
            each(id)?;
            prev = id;
        }
        Ok(())
    }

    /// Spans a column of `n` varints and returns it, checked: the
    /// errors, and the first of them, are exactly those `n` calls of
    /// [`varint`](Self::varint) would give, but no value is built. A
    /// reader that only needs to get past a column pays a scan of its
    /// bytes, eight at a time where no varint in them nears ten bytes.
    pub(crate) fn varint_column(&mut self, n: usize) -> Result<Varints<'a>, StoreError> {
        const TOPS: u64 = 0x8080_8080_8080_8080;
        let rest = self.rest();
        // `run`: continuation bytes so far of the varint being spanned.
        let (mut at, mut left, mut run) = (0usize, n, 0u32);
        while left > 0 {
            if let Some(Ok(word)) = rest.get(at..at + 8).map(<[u8; 8]>::try_from) {
                // Each byte with its top bit clear ends a varint. The
                // word is taken whole when every varint it ends is at
                // most nine bytes long (so none needs the tenth-byte
                // checks) and the column does not end inside it.
                let ends = !u64::from_le_bytes(word) & TOPS;
                let count = ends.count_ones() as usize;
                let short = if ends == 0 {
                    run == 0
                } else {
                    run + ends.trailing_zeros() / 8 <= 8
                };
                if short && (count < left || (count == left && ends >> 63 == 1)) {
                    at += 8;
                    left -= count;
                    run = if ends == 0 {
                        8
                    } else {
                        ends.leading_zeros() / 8
                    };
                    continue;
                }
            }
            let Some(&byte) = rest.get(at) else {
                return Err(StoreError::Truncated {
                    needed: 1,
                    available: 0,
                });
            };
            at += 1;
            if run == 9 {
                if byte & 0x7f > 1 {
                    return Err(StoreError::Corrupt("varint overflows u64"));
                }
                if byte & 0x80 != 0 {
                    return Err(StoreError::Corrupt("varint longer than 10 bytes"));
                }
            }
            if byte & 0x80 == 0 {
                left -= 1;
                run = 0;
            } else {
                run += 1;
            }
        }
        self.pos += at;
        Ok(Varints(&rest[..at]))
    }

    /// Spans `n` little-endian u64s and returns their bytes, with the
    /// error `n` calls of [`u64`](Self::u64) would give.
    pub(crate) fn u64_column(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let len = n.saturating_mul(8);
        if self.remaining() < len {
            return Err(StoreError::Truncated {
                needed: 8,
                available: self.remaining() % 8,
            });
        }
        self.take(len)
    }
}

/// A varint column that [`Reader::varint_column`] has checked,
/// iterated value by value.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Varints<'a>(&'a [u8]);

impl Iterator for Varints<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for (k, &byte) in self.0.iter().enumerate() {
            // A checked varint ends within ten bytes, so the shift
            // stays below 64.
            v |= u64::from(byte & 0x7f).wrapping_shl(7 * k as u32);
            if byte & 0x80 == 0 {
                self.0 = &self.0[k + 1..];
                return Some(v);
            }
        }
        None
    }
}

/// A delta-coded id list that [`Reader::delta_span`] has checked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaSpan<'a> {
    len: usize,
    last: Option<u32>,
    deltas: Varints<'a>,
}

impl<'a> DeltaSpan<'a> {
    /// Ids in the list.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The last (largest) id, if any.
    pub(crate) fn last(&self) -> Option<u32> {
        self.last
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        // Every delta and every running sum was checked to fit a u32.
        self.deltas.scan(0u32, |id, delta| {
            *id = id.wrapping_add(delta as u32);
            Some(*id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    /// `n` calls of `varint()` over the same bytes: where they stop,
    /// or the first error's text.
    fn one_by_one(bytes: &[u8], n: usize) -> Result<(usize, Vec<u64>), String> {
        let mut r = Reader::new(bytes);
        let values = (0..n)
            .map(|_| r.varint())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((r.remaining(), values))
    }

    /// One encoded varint of any length.
    fn one_varint() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            0u64..128,
            128u64..1 << 21,
            any::<u64>(),
            (0u32..64).prop_map(|s| 1u64 << s),
        ]
        .prop_map(|v| {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            b
        })
    }

    /// Varints of every length, among them ten-byte ones at and past
    /// the u64 limit and raw bytes, cut anywhere in a third of cases.
    fn varint_bytes() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            one_varint(),
            one_varint(),
            one_varint(),
            one_varint(),
            Just(vec![0xffu8; 10]),
            Just(vec![
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f
            ]),
            Just(vec![
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01
            ]),
            proptest::collection::vec(any::<u8>(), 1..12),
        ];
        (proptest::collection::vec(piece, 0..40), any::<usize>()).prop_map(|(pieces, cut)| {
            let bytes = pieces.concat();
            if cut % 3 == 0 {
                bytes[..cut % (bytes.len() + 1)].to_vec()
            } else {
                bytes
            }
        })
    }

    proptest! {
        /// `varint_column(n)` spans what `n` calls of `varint()` read,
        /// holds their values, and fails with their first error.
        #[test]
        fn a_varint_column_is_n_varint_calls(bytes in varint_bytes(), n in 0usize..48) {
            let mut r = Reader::new(&bytes);
            let got = r
                .varint_column(n)
                .map(|column| (r.remaining(), column.collect::<Vec<_>>()))
                .map_err(|e| e.to_string());
            prop_assert_eq!(got, one_by_one(&bytes, n));
        }

        /// A delta span makes the checks of `delta_list` and reads back
        /// its ids; a `u64_column` fails as `n` calls of `u64()` would.
        #[test]
        fn spans_agree_with_the_reads_they_replace(
            ids in proptest::collection::vec(any::<u32>(), 0..20),
            n in 0usize..20,
            cut in 0usize..200,
        ) {
            // Sorted, with any repeats kept: a repeat is a zero delta.
            let mut ids = ids;
            ids.sort_unstable();
            let mut bytes = Vec::new();
            put_delta_iter(&mut bytes, ids.len(), ids.iter().copied());
            let bytes = &bytes[..cut.min(bytes.len())];
            let listed = Reader::new(bytes).delta_list().map_err(|e| e.to_string());
            let spanned = Reader::new(bytes).delta_span(|_| Ok(())).map_err(|e| e.to_string());
            if let Ok(span) = &spanned {
                prop_assert_eq!(span.len(), span.iter().count());
                prop_assert_eq!(span.last(), span.iter().last());
            }
            prop_assert_eq!(spanned.map(|span| span.iter().collect::<Vec<_>>()), listed);

            let mut r = Reader::new(bytes);
            let words = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>();
            let column = Reader::new(bytes).u64_column(n);
            prop_assert_eq!(
                column.map(|c| c.len()).map_err(|e| e.to_string()),
                words.map(|w| w.len() * 8).map_err(|e| e.to_string())
            );
        }
    }

    #[test]
    fn varint_len_is_the_bytes_put_varint_writes() {
        for v in [0, 127, 128, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
            let mut at_offset = vec![0; buf.len()];
            let mut at = 0;
            put_varint_at(&mut at_offset, &mut at, v);
            assert_eq!((at_offset, at), (buf.clone(), buf.len()));
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: longer than any valid u64 varint.
        let buf = [0xffu8; 11];
        assert!(matches!(
            Reader::new(&buf).varint(),
            Err(StoreError::Corrupt(_))
        ));
        // 10 bytes whose top bits overflow the 64th bit.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(matches!(
            Reader::new(&buf).varint(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn delta_list_round_trips() {
        for ids in [vec![], vec![0], vec![5], vec![0, 1, 2, 900, u32::MAX]] {
            let mut buf = Vec::new();
            put_delta_iter(&mut buf, ids.len(), ids.iter().copied());
            assert_eq!(Reader::new(&buf).delta_list().unwrap(), ids);
        }
    }

    #[test]
    fn delta_list_rejects_repeats_and_mad_counts() {
        let mut buf = Vec::new();
        put_delta_iter(&mut buf, 2, [3, 3]);
        // Encoding a repeat produces delta 0, which decode rejects.
        assert!(matches!(
            Reader::new(&buf).delta_list(),
            Err(StoreError::Corrupt(_))
        ));
        // A count far beyond the remaining bytes is Truncated, cheaply.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        assert!(matches!(
            Reader::new(&buf).delta_list(),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn every_single_bit_flip_changes_the_lane_sum() {
        // Two whole 32-byte blocks and a 13-byte tail.
        let bytes: Vec<u8> = (0..77u32).map(|i| (i * 37 + 11) as u8).collect();
        let sum = lanes64(&bytes);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut dirty = bytes.clone();
                dirty[pos] ^= 1 << bit;
                assert_ne!(lanes64(&dirty), sum, "byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // Words 0 and 4 share lane 0. Without the rotation a flip of
        // bit 63 stays in bit 63 through every multiply, and a second
        // one four words later undoes it.
        let bytes = vec![0x5au8; 64];
        let mut dirty = bytes.clone();
        dirty[7] ^= 0x80;
        dirty[39] ^= 0x80;
        assert_ne!(lanes64(&dirty), lanes64(&bytes));
    }

    #[test]
    fn the_lane_sum_covers_the_length() {
        assert_ne!(lanes64(&[]), lanes64(&[0]));
        assert_ne!(lanes64(&[0; 32]), lanes64(&[0; 40]));
        assert_ne!(lanes64(&[0; 32]), lanes64(&[0; 64]));
    }

    #[test]
    fn truncation_is_truncated_not_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 77);
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.u64(), Err(StoreError::Truncated { .. })));
    }
}
