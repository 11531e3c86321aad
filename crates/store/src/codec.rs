//! Byte-level primitives for the store format: little-endian scalars,
//! LEB128 varints, delta-coded ascending id lists, and the FNV-1a and
//! lane checksums. Every decode path is total — malformed input comes
//! back as a [`StoreError`], never a panic or a silent misread.

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
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `N` varint columns, one value per row in each: the same
/// bytes as `N` passes of [`put_varint`], column after column, but
/// made in two passes over `rows` whatever `N` is. The first sizes
/// each column, the second writes every column at its own offset, so
/// wide rows are read twice rather than once per column.
pub fn put_varint_columns<T, const N: usize>(
    out: &mut Vec<u8>,
    rows: &[T],
    fields: impl Fn(&T) -> [u64; N],
) {
    let mut lens = [0usize; N];
    for row in rows {
        for (len, v) in lens.iter_mut().zip(fields(row)) {
            *len += varint_len(v);
        }
    }
    let mut at = [0usize; N];
    let mut end = out.len();
    for (at, len) in at.iter_mut().zip(lens) {
        *at = end;
        end += len;
    }
    out.resize(end, 0);
    for row in rows {
        for (at, mut v) in at.iter_mut().zip(fields(row)) {
            while v >= 0x80 {
                out[*at] = (v as u8) | 0x80;
                v >>= 7;
                *at += 1;
            }
            out[*at] = v as u8;
            *at += 1;
        }
    }
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
        let mut out = Vec::new();
        self.delta_list_into(&mut out, Ok)?;
        Ok(out)
    }

    /// Reads a delta-coded list like [`delta_list`](Self::delta_list),
    /// appending `map(id)` to `out` for each id instead of collecting
    /// the ids first: a decoder fills its rows straight from the bytes.
    /// `map` may reject an id with its own error.
    pub fn delta_list_into<T>(
        &mut self,
        out: &mut Vec<T>,
        mut map: impl FnMut(u32) -> Result<T, StoreError>,
    ) -> Result<(), StoreError> {
        let n = self.bounded_len()?;
        out.reserve(n);
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
            out.push(map(id)?);
            prev = id;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn varint_columns_equal_one_pass_per_column() {
        let rows: Vec<[u64; 3]> = (0..200u64)
            .map(|i| [i, i << 20, u64::MAX >> (i % 64)])
            .collect();
        let mut by_column = vec![9];
        for k in 0..3 {
            for row in &rows {
                put_varint(&mut by_column, row[k]);
            }
        }
        let mut at_once = vec![9];
        put_varint_columns(&mut at_once, &rows, |row| *row);
        assert_eq!(at_once, by_column);
        for v in [0, 127, 128, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
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
