//! Typed failures for the results store.
//!
//! Every way a persisted file can be wrong gets its own variant, so
//! callers (and tests) can tell a stale-RIB mismatch from a truncated
//! download from bit rot. Nothing in the store panics on bad input:
//! decode and merge paths return these instead.

use std::fmt;

/// Everything that can go wrong reading, decoding, or merging
/// persisted results.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the store magic — not ours.
    BadMagic,
    /// A format version this reader does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A window file where a summary was expected, or vice versa.
    WrongKind {
        /// The kind byte the caller expected.
        expected: u8,
        /// The kind byte in the header.
        found: u8,
    },
    /// The buffer ends before the encoding says it should.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Header or payload checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the bytes.
        found: u64,
    },
    /// Structurally invalid payload (non-monotone ids, impossible
    /// counts, varint overflow, ...).
    Corrupt(&'static str),
    /// The file was written against a different `Slot24Index` (stale
    /// RIB vs. persisted window): row ids would silently misalign.
    FingerprintMismatch {
        /// Fingerprint the live index carries.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The file was accumulated under a different ingest size
    /// threshold, so size-class host sets are not comparable.
    ThresholdMismatch {
        /// Threshold the accumulator carries.
        expected: u16,
        /// Threshold recorded in the file.
        found: u16,
    },
    /// A window offered to the summary out of day order.
    WindowOrder {
        /// Last day already merged into the summary.
        last: u32,
        /// Day of the offered window.
        offered: u32,
    },
}

impl StoreError {
    /// A short, stable label for the failure's kind — the `reason` of
    /// `mt_store_quarantined_total`.
    pub fn reason(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::BadMagic => "bad_magic",
            StoreError::UnsupportedVersion { .. } => "version",
            StoreError::WrongKind { .. } => "kind",
            StoreError::Truncated { .. } => "truncated",
            StoreError::ChecksumMismatch { .. } => "checksum",
            StoreError::Corrupt(_) => "corrupt",
            StoreError::FingerprintMismatch { .. } => "fingerprint",
            StoreError::ThresholdMismatch { .. } => "threshold",
            StoreError::WindowOrder { .. } => "order",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::BadMagic => write!(f, "not a results-store file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::WrongKind { expected, found } => {
                write!(f, "wrong file kind: expected {expected}, found {found}")
            }
            StoreError::Truncated { needed, available } => {
                write!(f, "truncated file: needed {needed} bytes, have {available}")
            }
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, bytes hash to {found:#018x}"
            ),
            StoreError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "slot-index fingerprint mismatch: live index {expected:#018x}, file {found:#018x} \
                 (stale RIB?)"
            ),
            StoreError::ThresholdMismatch { expected, found } => write!(
                f,
                "size-threshold mismatch: accumulator {expected}, file {found}"
            ),
            StoreError::WindowOrder { last, offered } => write!(
                f,
                "window out of order: summary already holds day {last}, offered day {offered}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
