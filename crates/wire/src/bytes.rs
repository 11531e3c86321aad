//! Fixed-width field reads shared by every header view.
//!
//! Each packet type validates its buffer length once in `new_checked`,
//! and the IPFIX codec takes each header and data record as a
//! fixed-size array; after that, field accessors read constant
//! `field::*` ranges that are in bounds by construction. These helpers centralise the
//! slice-to-array step so that invariant is stated (and pragma'd for
//! the no-panic lint) in exactly one place instead of at every
//! accessor.

use std::ops::Range;

/// Reads `N` bytes at `range` as a fixed-size array.
///
/// Invariant: callers pass a constant `field::*` range of length `N`
/// that lies inside a buffer whose length was validated at
/// construction (`new_checked` / header reads of fixed-size arrays).
/// An out-of-contract call is a programming error in the caller, not a
/// decode error, so a loud panic is the correct failure mode.
#[inline]
pub(crate) fn array<const N: usize>(data: &[u8], range: Range<usize>) -> [u8; N] {
    // check: allow(no_panic, "field ranges are compile-time constants of length N inside length-validated buffers")
    data[range].try_into().expect("field range length mismatch")
}

/// Reads a big-endian `u16` at `range` (a constant 2-byte field range).
#[inline]
pub(crate) fn be_u16(data: &[u8], range: Range<usize>) -> u16 {
    u16::from_be_bytes(array(data, range))
}

/// Reads a big-endian `u32` at `range` (a constant 4-byte field range).
#[inline]
pub(crate) fn be_u32(data: &[u8], range: Range<usize>) -> u32 {
    u32::from_be_bytes(array(data, range))
}

/// Reads a big-endian `u64` at `range` (a constant 8-byte field range).
#[inline]
pub(crate) fn be_u64(data: &[u8], range: Range<usize>) -> u64 {
    u64::from_be_bytes(array(data, range))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_positional() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc];
        assert_eq!(be_u16(&data, 0..2), 0x1234);
        assert_eq!(be_u16(&data, 2..4), 0x5678);
        assert_eq!(be_u32(&data, 1..5), 0x3456_789a);
        assert_eq!(
            be_u64(&[1, 2, 3, 4, 5, 6, 7, 8, 9], 1..9),
            0x0203_0405_0607_0809
        );
        assert_eq!(array::<3>(&data, 3..6), [0x78, 0x9a, 0xbc]);
    }

    #[test]
    #[should_panic(expected = "field range length mismatch")]
    fn out_of_contract_range_panics() {
        array::<4>(&[0u8; 8], 0..2);
    }
}
