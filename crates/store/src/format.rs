//! The on-disk format: self-describing header plus delta/bitmap-coded
//! columnar payload.
//!
//! Every file starts with a fixed 64-byte header:
//!
//! ```text
//! offset  size  field
//!      0     8  magic          b"MTSTOR01"
//!      8     4  version        u32 LE, one of ACCEPTED_VERSIONS
//!     12     1  kind           1 = window, 2 = summary
//!     13     3  (padding, zero)
//!     16     4  day            u32 LE (window day / summary first day)
//!     20     4  span_days      u32 LE
//!     24     8  fingerprint    u64 LE, Slot24Index::fingerprint()
//!     32     4  num_slots      u32 LE
//!     36     2  size_threshold u16 LE
//!     38     2  (padding, zero)
//!     40     8  payload_len    u64 LE
//!     48     8  payload_sum    checksum of the payload bytes, by version
//!     56     8  header_fnv     FNV-1a over header bytes 0..56
//! ```
//!
//! Versions differ only in what bytes 48..56 hold:
//!
//! ```text
//! version  payload_sum                                 written by
//!       1  codec::fnv1a64, one serial multiply chain   older builds
//!       2  codec::lanes64, four independent lanes      this build
//! ```
//!
//! Readers accept every version in [`ACCEPTED_VERSIONS`]; writers write
//! only [`VERSION`]. The header checksum is FNV-1a in every version: it
//! is checked before the version is read.
//!
//! Readers check, in order: length, magic, header checksum, version,
//! kind, payload length, payload checksum — and only then decode. A
//! mismatched RIB fingerprint or size threshold is surfaced as a typed
//! [`StoreError`] by the merge/load paths rather than misaligning rows.
//!
//! Payload columns are laid out struct-of-arrays: ascending row ids as
//! varint delta lists, one varint array per counter column, host sets
//! as raw 256-bit bitmaps (four u64 words), TCP size histograms as a
//! sparse per-row section. Dense ascending slot ids make the deltas
//! mostly one byte each. A column section reads, in order:
//!
//! ```text
//! ids       delta list: count, first id, deltas (strictly ascending)
//! counters  C varint columns, n values each (5 dst, 1 src)
//! hosts     H columns of n sets, 32 bytes a set (3 dst, 1 src)
//! sizes     dst only: delta list of the row indices with a histogram,
//!           then per such row a delta list of sizes and their counts
//! ```
//!
//! Both reading paths walk a section with one walker (`walk_dst`,
//! `walk_src`): it spans the id list, each counter column and the
//! host-set bytes as checked sub-slices of the payload, then walks the
//! size lists. [`WindowData::decode`] builds each row once from the
//! located columns; the verdict-only load,
//! [`WindowData::decode_verdicts`], builds no row but makes every check
//! `decode` makes — header gates, the four section walks, the slot
//! bound, the verdict and port lists, no trailing bytes — and so fails
//! a damaged file with the same error. The encoder writes a section in
//! two passes over its rows: one sizes every column, the other places
//! each row's id, counters, host sets and size list at their offsets.

use crate::codec::{self, DeltaSpan, Reader, Varints};
use crate::error::StoreError;
use mt_core::PipelineResult;
use mt_flow::{
    ColumnSlices, DstBlockStats, HostSet, SizeHistogram, SrcBlockStats, TrafficStats, TrafficView,
};
use mt_types::{Block24, Block24Set, Day, Slot24Index};

/// File magic: "MTSTOR" plus the two-digit major layout generation.
pub const MAGIC: [u8; 8] = *b"MTSTOR01";
/// The format version this build writes: its payload checksum is
/// [`codec::lanes64`].
pub const VERSION: u32 = 2;
/// The format versions this build reads. Version 1 files, written by
/// older builds, carry [`codec::fnv1a64`] as their payload checksum.
pub const ACCEPTED_VERSIONS: [u32; 2] = [1, VERSION];
/// Header kind byte for a single-window file.
pub const KIND_WINDOW: u8 = 1;
/// Header kind byte for a running-summary file.
pub const KIND_SUMMARY: u8 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Per-/24 verdict id lists for one pipeline result, split into
/// in-index slots and out-of-index raw blocks. All six lists are
/// strictly ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdicts {
    /// Dark /24s inside the slot index, by slot id.
    pub dark_slots: Vec<u32>,
    /// Unclean /24s inside the slot index, by slot id.
    pub unclean_slots: Vec<u32>,
    /// Gray /24s inside the slot index, by slot id.
    pub gray_slots: Vec<u32>,
    /// Dark /24s outside the slot index, by raw `Block24` id.
    pub dark_blocks: Vec<u32>,
    /// Unclean /24s outside the slot index, by raw `Block24` id.
    pub unclean_blocks: Vec<u32>,
    /// Gray /24s outside the slot index, by raw `Block24` id.
    pub gray_blocks: Vec<u32>,
}

impl Verdicts {
    /// Splits a pipeline result's block sets into slot/overflow lists.
    pub fn from_result(result: &PipelineResult, slots: &Slot24Index) -> Verdicts {
        let mut v = Verdicts::default();
        split_set(&result.dark, slots, &mut v.dark_slots, &mut v.dark_blocks);
        split_set(
            &result.unclean,
            slots,
            &mut v.unclean_slots,
            &mut v.unclean_blocks,
        );
        split_set(&result.gray, slots, &mut v.gray_slots, &mut v.gray_blocks);
        v
    }

    /// Rebuilds the `(dark, unclean, gray)` block sets.
    pub fn to_sets(&self, slots: &Slot24Index) -> (Block24Set, Block24Set, Block24Set) {
        (
            join_set(&self.dark_slots, &self.dark_blocks, slots),
            join_set(&self.unclean_slots, &self.unclean_blocks, slots),
            join_set(&self.gray_slots, &self.gray_blocks, slots),
        )
    }

    /// Total /24s across all six lists.
    pub fn len(&self) -> usize {
        self.dark_slots.len()
            + self.unclean_slots.len()
            + self.gray_slots.len()
            + self.dark_blocks.len()
            + self.unclean_blocks.len()
            + self.gray_blocks.len()
    }

    /// True when no /24 carries any verdict.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for ids in [
            &self.dark_slots,
            &self.unclean_slots,
            &self.gray_slots,
            &self.dark_blocks,
            &self.unclean_blocks,
            &self.gray_blocks,
        ] {
            codec::put_delta_iter(out, ids.len(), ids.iter().copied());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Verdicts, StoreError> {
        Ok(Verdicts {
            dark_slots: r.delta_list()?,
            unclean_slots: r.delta_list()?,
            gray_slots: r.delta_list()?,
            dark_blocks: r.delta_list()?,
            unclean_blocks: r.delta_list()?,
            gray_blocks: r.delta_list()?,
        })
    }
}

fn split_set(
    set: &Block24Set,
    slots: &Slot24Index,
    into_slots: &mut Vec<u32>,
    into_blocks: &mut Vec<u32>,
) {
    for block in set.iter() {
        match slots.slot_of(block) {
            Some(slot) => into_slots.push(slot),
            None => into_blocks.push(block.0),
        }
    }
    // Block24Set iterates in address order and slot ids are monotone in
    // address, so both lists arrive sorted; keep that a guarantee.
    into_slots.sort_unstable();
    into_blocks.sort_unstable();
}

fn join_set(slot_ids: &[u32], block_ids: &[u32], slots: &Slot24Index) -> Block24Set {
    let mut set = Block24Set::new();
    for &slot in slot_ids {
        set.insert(slots.block_of(slot));
    }
    for &id in block_ids {
        set.insert(Block24(id));
    }
    set
}

/// One closed day window, ready to persist or just decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowData {
    /// The day this window covers.
    pub day: Day,
    /// Flow records ingested into the window.
    pub records: u64,
    /// Fingerprint of the `Slot24Index` the columns are keyed by.
    pub fingerprint: u64,
    /// Slot count of that index (row-space sanity bound).
    pub num_slots: u32,
    /// The traffic aggregates, slot-ordered.
    pub columns: ColumnSlices,
    /// The window's pipeline verdicts.
    pub verdicts: Verdicts,
    /// Destination-port histogram over the window's sampled flows,
    /// sorted by port.
    pub ports: Vec<(u16, u64)>,
}

impl WindowData {
    /// Snapshots a closed window from live state.
    pub fn build<V: TrafficView>(
        day: Day,
        records: u64,
        stats: &V,
        verdicts: Verdicts,
        ports: &[(u16, u64)],
        slots: &Slot24Index,
    ) -> WindowData {
        WindowData {
            day,
            records,
            fingerprint: slots.fingerprint(),
            num_slots: slots.num_slots(),
            columns: ColumnSlices::export(stats, slots),
            verdicts,
            ports: ports.to_vec(),
        }
    }

    /// Rebuilds a map-layout accumulator from the persisted columns.
    pub fn to_stats(&self, slots: &Slot24Index) -> TrafficStats {
        self.columns.to_stats(slots)
    }

    /// Serialises the window: header plus payload, checksummed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serialises the window into `out`, replacing what it held: a
    /// caller that keeps one buffer across closes reuses its memory
    /// instead of first-touching a fresh one per file.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        header_room(out, &self.columns);
        codec::put_varint(out, self.records);
        encode_columns(out, &self.columns);
        self.verdicts.encode(out);
        encode_ports(out, &self.ports);
        seal(
            out,
            KIND_WINDOW,
            self.day.0,
            1,
            self.fingerprint,
            self.num_slots,
            self.columns.size_threshold,
        );
    }

    /// Decodes and fully validates a window file.
    pub fn decode(bytes: &[u8]) -> Result<WindowData, StoreError> {
        let mut columns = ColumnSlices::empty(0);
        let (h, records, verdicts, ports) = read_window(bytes, Some(&mut columns))?;
        columns.size_threshold = h.size_threshold;
        Ok(WindowData {
            day: Day(h.day),
            records,
            fingerprint: h.fingerprint,
            num_slots: h.num_slots,
            columns,
            verdicts,
            ports,
        })
    }

    /// The verdict-only load: validates a window file exactly as
    /// [`decode`](Self::decode) does, with the same error for the same
    /// damage, but builds none of its rows, and returns the file's
    /// slot-index fingerprint with its verdicts. The column sections
    /// are walked, not read: every id list, counter column, host-set
    /// span and size list is checked where it lies.
    pub fn decode_verdicts(bytes: &[u8]) -> Result<(u64, Verdicts), StoreError> {
        let (h, _, verdicts, _) = read_window(bytes, None)?;
        Ok((h.fingerprint, verdicts))
    }
}

/// What a window file holds besides its columns.
type WindowParts = (Header, u64, Verdicts, Vec<(u16, u64)>);

/// Validates a window file and reads its records count, verdicts and
/// ports, building its rows into `columns` when given (see
/// [`walk_columns`]).
fn read_window(
    bytes: &[u8],
    columns: Option<&mut ColumnSlices>,
) -> Result<WindowParts, StoreError> {
    let h = Header::decode(bytes, KIND_WINDOW)?;
    let mut r = Reader::new(h.payload(bytes));
    let records = r.varint()?;
    walk_columns(&mut r, h.num_slots, columns)?;
    let verdicts = Verdicts::decode(&mut r)?;
    let ports = decode_ports(&mut r)?;
    if !r.is_empty() {
        return Err(StoreError::Corrupt("trailing bytes after window payload"));
    }
    Ok((h, records, verdicts, ports))
}

/// The running multi-day combination, maintained by incremental merge
/// of each closed window — the store's replacement for re-merging all
/// windows from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryData {
    /// First merged day, `None` until the first window lands.
    pub first_day: Option<Day>,
    /// Last merged day.
    pub last_day: Option<Day>,
    /// Days spanned, inclusive (`last - first + 1`); 0 when empty.
    pub span_days: u32,
    /// Windows merged in.
    pub windows: u32,
    /// Flow records across all merged windows.
    pub records: u64,
    /// Fingerprint of the `Slot24Index` all windows must share.
    pub fingerprint: u64,
    /// Slot count of that index.
    pub num_slots: u32,
    /// Merged traffic aggregates.
    pub columns: ColumnSlices,
    /// Combined pipeline verdicts over the merged span (set via
    /// [`set_verdicts`](Self::set_verdicts); the store cannot run the
    /// pipeline itself).
    pub verdicts: Verdicts,
    /// First day each in-index /24 was seen dark: `(slot id, day)`,
    /// ascending by slot id.
    pub first_dark_slots: Vec<(u32, u32)>,
    /// First day each out-of-index /24 was seen dark: `(block id, day)`.
    pub first_dark_blocks: Vec<(u32, u32)>,
    /// Merged destination-port histogram, sorted by port.
    pub ports: Vec<(u16, u64)>,
}

impl SummaryData {
    /// A summary with nothing merged yet. The first merged window
    /// stamps the fingerprint, slot count, and size threshold.
    pub fn empty() -> SummaryData {
        SummaryData {
            first_day: None,
            last_day: None,
            span_days: 0,
            windows: 0,
            records: 0,
            fingerprint: 0,
            num_slots: 0,
            columns: ColumnSlices::empty(0),
            verdicts: Verdicts::default(),
            first_dark_slots: Vec::new(),
            first_dark_blocks: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Folds one closed window into the running summary.
    ///
    /// The first window adopts the summary's identity (fingerprint,
    /// slot count, size threshold). Every later window is gated: a
    /// disagreeing fingerprint (stale RIB vs. persisted window),
    /// disagreeing size threshold, or out-of-order day is a typed
    /// error and leaves the summary untouched — never a panic, never
    /// silently misaligned rows.
    pub fn merge_window(&mut self, w: &WindowData) -> Result<(), StoreError> {
        if self.windows == 0 {
            self.fingerprint = w.fingerprint;
            self.num_slots = w.num_slots;
            self.first_day = Some(w.day);
            self.columns = ColumnSlices::empty(w.columns.size_threshold);
        } else {
            if w.fingerprint != self.fingerprint {
                return Err(StoreError::FingerprintMismatch {
                    expected: self.fingerprint,
                    found: w.fingerprint,
                });
            }
            if w.columns.size_threshold != self.columns.size_threshold {
                return Err(StoreError::ThresholdMismatch {
                    expected: self.columns.size_threshold,
                    found: w.columns.size_threshold,
                });
            }
            if let Some(last) = self.last_day {
                if w.day <= last {
                    return Err(StoreError::WindowOrder {
                        last: last.0,
                        offered: w.day.0,
                    });
                }
            }
        }
        self.columns.merge(&w.columns);
        self.records += w.records;
        merge_ports(&mut self.ports, &w.ports);
        merge_first_dark(&mut self.first_dark_slots, &w.verdicts.dark_slots, w.day.0);
        merge_first_dark(
            &mut self.first_dark_blocks,
            &w.verdicts.dark_blocks,
            w.day.0,
        );
        self.last_day = Some(w.day);
        self.windows += 1;
        self.span_days = match (self.first_day, self.last_day) {
            (Some(f), Some(l)) => l.0 - f.0 + 1,
            _ => 0,
        };
        Ok(())
    }

    /// Replaces the combined verdicts — called after each merge with
    /// the pipeline's multi-day result, which the store itself cannot
    /// compute.
    pub fn set_verdicts(&mut self, verdicts: Verdicts) {
        self.verdicts = verdicts;
    }

    /// Rebuilds a map-layout accumulator from the merged columns.
    pub fn to_stats(&self, slots: &Slot24Index) -> TrafficStats {
        self.columns.to_stats(slots)
    }

    /// Serialises the summary: header plus payload, checksummed.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serialises the summary into `out`, replacing what it held (see
    /// [`WindowData::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        header_room(out, &self.columns);
        codec::put_varint(out, u64::from(self.windows));
        codec::put_varint(out, self.records);
        codec::put_u32(out, self.last_day.map_or(0, |d| d.0));
        encode_columns(out, &self.columns);
        self.verdicts.encode(out);
        encode_dated_list(out, &self.first_dark_slots);
        encode_dated_list(out, &self.first_dark_blocks);
        encode_ports(out, &self.ports);
        seal(
            out,
            KIND_SUMMARY,
            self.first_day.map_or(0, |d| d.0),
            self.span_days,
            self.fingerprint,
            self.num_slots,
            self.columns.size_threshold,
        );
    }

    /// Decodes and fully validates a summary file.
    pub fn decode(bytes: &[u8]) -> Result<SummaryData, StoreError> {
        let h = Header::decode(bytes, KIND_SUMMARY)?;
        let mut r = Reader::new(h.payload(bytes));
        let windows = r.varint_u32()?;
        let records = r.varint()?;
        let last_day = r.u32()?;
        let mut columns = ColumnSlices::empty(h.size_threshold);
        walk_columns(&mut r, h.num_slots, Some(&mut columns))?;
        let verdicts = Verdicts::decode(&mut r)?;
        let first_dark_slots = decode_dated_list(&mut r)?;
        let first_dark_blocks = decode_dated_list(&mut r)?;
        let ports = decode_ports(&mut r)?;
        if !r.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes after summary payload"));
        }
        Ok(SummaryData {
            first_day: (windows > 0).then_some(Day(h.day)),
            last_day: (windows > 0).then_some(Day(last_day)),
            span_days: h.span_days,
            windows,
            records,
            fingerprint: h.fingerprint,
            num_slots: h.num_slots,
            columns,
            verdicts,
            first_dark_slots,
            first_dark_blocks,
            ports,
        })
    }
}

/// Decoded header fields.
struct Header {
    day: u32,
    span_days: u32,
    fingerprint: u64,
    num_slots: u32,
    size_threshold: u16,
    payload_len: u64,
}

impl Header {
    fn payload<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[HEADER_LEN..HEADER_LEN + self.payload_len as usize]
    }

    /// Validates length, magic, header checksum, version, kind,
    /// payload length, and payload checksum — in that order.
    fn decode(bytes: &[u8], expected_kind: u8) -> Result<Header, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut r = Reader::new(&bytes[8..HEADER_LEN]);
        // Reads from a 56-byte slice cannot fail, but stay total.
        let version = r.u32()?;
        let kind = r.u16()? & 0xff; // kind byte + first pad byte
        let _pad = r.u16()?;
        let day = r.u32()?;
        let span_days = r.u32()?;
        let fingerprint = r.u64()?;
        let num_slots = r.u32()?;
        let size_threshold = r.u16()?;
        let _pad2 = r.u16()?;
        let payload_len = r.u64()?;
        let payload_sum = r.u64()?;
        let header_fnv = r.u64()?;
        if codec::fnv1a64(&bytes[..56]) != header_fnv {
            return Err(StoreError::ChecksumMismatch {
                expected: header_fnv,
                found: codec::fnv1a64(&bytes[..56]),
            });
        }
        if !ACCEPTED_VERSIONS.contains(&version) {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let kind = kind as u8;
        if kind != expected_kind {
            return Err(StoreError::WrongKind {
                expected: expected_kind,
                found: kind,
            });
        }
        let total = (HEADER_LEN as u64).saturating_add(payload_len);
        if (bytes.len() as u64) < total {
            return Err(StoreError::Truncated {
                needed: total as usize,
                available: bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize];
        let found = payload_sum_of(version, payload);
        if found != payload_sum {
            return Err(StoreError::ChecksumMismatch {
                expected: payload_sum,
                found,
            });
        }
        Ok(Header {
            day,
            span_days,
            fingerprint,
            num_slots,
            size_threshold,
            payload_len,
        })
    }
}

/// Empties an encode buffer, keeping its capacity, and reserves the
/// header's bytes at its front: the payload is written after them and
/// [`seal`] stamps the header in place, so the payload is never copied.
///
/// An empty buffer is first given room for the file `columns` make,
/// so that it is not regrown (and recopied) on the way: a destination
/// row's three host sets and counters rarely take 128 bytes, a source
/// row's 48. A retained buffer already has the room.
fn header_room(out: &mut Vec<u8>, columns: &ColumnSlices) {
    let dst = columns.dst.len() + columns.ovf_dst.len();
    let src = columns.src.len() + columns.ovf_src.len();
    out.clear();
    out.reserve(HEADER_LEN + 128 * dst + 48 * src);
    out.resize(HEADER_LEN, 0);
}

/// Stamps the header into the reserved front of `out` (from
/// [`header_room`]), over the payload after it, then [`reseal`]s it
/// for both checksums.
fn seal(
    out: &mut [u8],
    kind: u8,
    day: u32,
    span_days: u32,
    fingerprint: u64,
    num_slots: u32,
    size_threshold: u16,
) {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    codec::put_u32(&mut header, VERSION);
    header.push(kind);
    header.extend_from_slice(&[0, 0, 0]);
    codec::put_u32(&mut header, day);
    codec::put_u32(&mut header, span_days);
    codec::put_u64(&mut header, fingerprint);
    codec::put_u32(&mut header, num_slots);
    codec::put_u16(&mut header, size_threshold);
    codec::put_u16(&mut header, 0);
    codec::put_u64(&mut header, (out.len() - HEADER_LEN) as u64);
    out[..header.len()].copy_from_slice(&header);
    reseal(out);
}

/// Recomputes both checksums over a (possibly edited) encoded file:
/// the last step of every encode. The payload checksum is the one the
/// version field names, so a file whose version is set to 1 and
/// resealed is a valid version 1 file. Also test tooling for
/// corruption vectors: flip payload bytes, reseal the header, and the
/// payload checksum stays honest while the content is wrong — proving
/// decode catches structural damage, not just the checksum.
pub fn reseal(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let mut version = [0u8; 4];
    version.copy_from_slice(&bytes[8..12]);
    let payload_sum = payload_sum_of(u32::from_le_bytes(version), &bytes[HEADER_LEN..]);
    bytes[48..56].copy_from_slice(&payload_sum.to_le_bytes());
    let header_fnv = codec::fnv1a64(&bytes[..56]);
    bytes[56..64].copy_from_slice(&header_fnv.to_le_bytes());
}

/// The payload checksum `version` carries in header bytes 48..56:
/// FNV-1a for version 1, the lane sum for every later one.
fn payload_sum_of(version: u32, payload: &[u8]) -> u64 {
    match version {
        1 => codec::fnv1a64(payload),
        _ => codec::lanes64(payload),
    }
}

fn encode_ports(out: &mut Vec<u8>, ports: &[(u16, u64)]) {
    codec::put_delta_iter(out, ports.len(), ports.iter().map(|&(p, _)| u32::from(p)));
    for &(_, count) in ports {
        codec::put_varint(out, count);
    }
}

fn decode_ports(r: &mut Reader<'_>) -> Result<Vec<(u16, u64)>, StoreError> {
    let ids = r.delta_list()?;
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        let port = u16::try_from(id).map_err(|_| StoreError::Corrupt("port exceeds u16"))?;
        out.push((port, r.varint()?));
    }
    Ok(out)
}

fn encode_dated_list(out: &mut Vec<u8>, entries: &[(u32, u32)]) {
    codec::put_delta_iter(out, entries.len(), entries.iter().map(|&(id, _)| id));
    for &(_, day) in entries {
        codec::put_varint(out, u64::from(day));
    }
}

fn decode_dated_list(r: &mut Reader<'_>) -> Result<Vec<(u32, u32)>, StoreError> {
    let ids = r.delta_list()?;
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        out.push((id, r.varint_u32()?));
    }
    Ok(out)
}

/// Folds one window's dark ids (strictly ascending, as every
/// [`Verdicts`] list is) into an ascending `(id, first dark day)` list:
/// ids already present keep their earlier day, new ones enter with
/// `day`. One linear merge — inserting one by one moved the whole tail
/// per new id.
fn merge_first_dark(seen: &mut Vec<(u32, u32)>, dark: &[u32], day: u32) {
    let mut merged = Vec::with_capacity(seen.len() + dark.len());
    let mut new = dark.iter().copied().peekable();
    for &entry in seen.iter() {
        while let Some(id) = new.next_if(|&id| id < entry.0) {
            merged.push((id, day));
        }
        new.next_if_eq(&entry.0);
        merged.push(entry);
    }
    merged.extend(new.map(|id| (id, day)));
    *seen = merged;
}

/// Merges a sorted `(port, count)` histogram into another.
fn merge_ports(into: &mut Vec<(u16, u64)>, from: &[(u16, u64)]) {
    for &(port, count) in from {
        match into.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => into[i].1 = into[i].1.saturating_add(count),
            Err(i) => into.insert(i, (port, count)),
        }
    }
}

fn encode_columns(out: &mut Vec<u8>, c: &ColumnSlices) {
    codec::put_varint(out, c.total_flows);
    codec::put_varint(out, c.total_packets);
    codec::put_varint(out, c.total_octets);
    encode_section(out, &c.dst, dst_counters, dst_hosts, Some(dst_sizes));
    encode_section(out, &c.src, src_counters, src_hosts, None);
    encode_section(out, &c.ovf_dst, dst_counters, dst_hosts, Some(dst_sizes));
    encode_section(out, &c.ovf_src, src_counters, src_hosts, None);
}

fn dst_counters(r: &DstBlockStats) -> [u64; 5] {
    [
        r.tcp_packets,
        r.tcp_octets,
        r.udp_packets,
        r.icmp_packets,
        r.other_packets,
    ]
}

fn dst_hosts(r: &DstBlockStats) -> [HostSet; 3] {
    [r.received, r.received_tcp, r.received_big_tcp]
}

fn dst_sizes(r: &DstBlockStats) -> &SizeHistogram {
    &r.tcp_sizes
}

fn src_counters(r: &SrcBlockStats) -> [u64; 1] {
    [r.packets]
}

fn src_hosts(r: &SrcBlockStats) -> [HostSet; 1] {
    [r.originating]
}

/// Encodes one column section: the row ids as a delta list, `C`
/// varint counter columns, `H` host-set columns of 32 raw bytes per
/// set, and — for a section with `sizes` — the sparse size lists: the
/// delta list of the indices of rows that have one, then each such
/// row's sizes as a delta list followed by their counts.
///
/// Two passes over `rows`, however many columns. The first sizes the
/// id deltas, each counter column and the index deltas. The second
/// places each row's id delta, counters, host sets and index delta at
/// their own offsets, and appends its size list behind everything: the
/// size lists are the section's tail.
fn encode_section<T, const C: usize, const H: usize>(
    out: &mut Vec<u8>,
    rows: &[(u32, T)],
    counters: impl Fn(&T) -> [u64; C],
    hosts: impl Fn(&T) -> [HostSet; H],
    sizes: Option<fn(&T) -> &SizeHistogram>,
) {
    fn sized_of<T>(sizes: Option<fn(&T) -> &SizeHistogram>, row: &T) -> Option<&SizeHistogram> {
        sizes.map(|of| of(row)).filter(|s| !s.is_empty())
    }
    let (mut id_len, mut lens) = (0, [0; C]);
    let (mut sized, mut sized_len) = (0, 0);
    let (mut prev_id, mut prev_sized) = (0u32, 0);
    for (i, (id, row)) in rows.iter().enumerate() {
        id_len += codec::varint_len(u64::from(id.wrapping_sub(prev_id)));
        prev_id = *id;
        for (len, v) in lens.iter_mut().zip(counters(row)) {
            *len += codec::varint_len(v);
        }
        if sized_of(sizes, row).is_some() {
            sized += 1;
            sized_len += codec::varint_len((i - prev_sized) as u64);
            prev_sized = i;
        }
    }

    codec::put_varint(out, rows.len() as u64);
    let mut at_id = out.len();
    let mut at = [0; C];
    let mut end = at_id + id_len;
    for (at, len) in at.iter_mut().zip(lens) {
        *at = end;
        end += len;
    }
    let at_hosts = end;
    out.resize(at_hosts + 32 * H * rows.len(), 0);
    let mut at_sized = 0;
    if sizes.is_some() {
        codec::put_varint(out, sized as u64);
        at_sized = out.len();
        out.resize(at_sized + sized_len, 0);
    }

    let (mut prev_id, mut prev_sized) = (0u32, 0);
    for (i, (id, row)) in rows.iter().enumerate() {
        codec::put_varint_at(out, &mut at_id, u64::from(id.wrapping_sub(prev_id)));
        prev_id = *id;
        for (at, v) in at.iter_mut().zip(counters(row)) {
            codec::put_varint_at(out, at, v);
        }
        for (k, set) in hosts(row).into_iter().enumerate() {
            let at = at_hosts + 32 * (k * rows.len() + i);
            for (word, w) in out[at..at + 32].chunks_exact_mut(8).zip(set.to_words()) {
                word.copy_from_slice(&w.to_le_bytes());
            }
        }
        if let Some(sizes) = sized_of(sizes, row) {
            codec::put_varint_at(out, &mut at_sized, (i - prev_sized) as u64);
            prev_sized = i;
            codec::put_delta_iter(out, sizes.len(), sizes.iter().map(|(s, _)| u32::from(s)));
            for (_, count) in sizes.iter() {
                codec::put_varint(out, count);
            }
        }
    }
}

/// Walks the column totals and the four sections, then checks that no
/// slot id lies beyond the index. With `into`, it fills the totals and
/// builds the rows (its row vectors must be empty); without, it builds
/// nothing and makes every check all the same.
fn walk_columns(
    r: &mut Reader<'_>,
    num_slots: u32,
    into: Option<&mut ColumnSlices>,
) -> Result<(), StoreError> {
    let totals = [r.varint()?, r.varint()?, r.varint()?];
    let (dst, src, ovf_dst, ovf_src) = match into {
        Some(c) => {
            [c.total_flows, c.total_packets, c.total_octets] = totals;
            let ColumnSlices {
                dst,
                src,
                ovf_dst,
                ovf_src,
                ..
            } = c;
            (Some(dst), Some(src), Some(ovf_dst), Some(ovf_src))
        }
        None => (None, None, None, None),
    };
    let last_dst = walk_dst(r, dst)?;
    let last_src = walk_src(r, src)?;
    walk_dst(r, ovf_dst)?;
    walk_src(r, ovf_src)?;
    if last_dst.is_some_and(|id| id >= num_slots) {
        return Err(StoreError::Corrupt("dst slot id beyond index"));
    }
    if last_src.is_some_and(|id| id >= num_slots) {
        return Err(StoreError::Corrupt("src slot id beyond index"));
    }
    Ok(())
}

/// One section's row ids, `C` counter columns and `H` host-set
/// columns, as [`locate`] found them: checked, with no row built.
struct Located<'a, const C: usize, const H: usize> {
    ids: DeltaSpan<'a>,
    counters: [Varints<'a>; C],
    /// Set `k` of row `i` is the 32 bytes at `32 * (k * rows + i)`.
    hosts: &'a [u8],
}

/// Finds a section's id list, its counter columns and its host-set
/// bytes, with the errors reading them value by value would give.
fn locate<'a, const C: usize, const H: usize>(
    r: &mut Reader<'a>,
) -> Result<Located<'a, C, H>, StoreError> {
    let ids = r.delta_span(|_| Ok(()))?;
    let mut counters = [Varints::default(); C];
    for column in &mut counters {
        *column = r.varint_column(ids.len())?;
    }
    let hosts = r.u64_column(ids.len().saturating_mul(4 * H))?;
    Ok(Located {
        ids,
        counters,
        hosts,
    })
}

impl<const C: usize, const H: usize> Located<'_, C, H> {
    /// Appends each row once, made by `row` from its counters and host
    /// sets.
    fn rows<T>(self, out: &mut Vec<(u32, T)>, row: impl Fn([u64; C], [HostSet; H]) -> T) {
        let n = self.ids.len();
        let mut counters = self.counters;
        out.reserve_exact(n);
        for (i, id) in self.ids.iter().enumerate() {
            let values = counters.each_mut().map(|c| c.next().unwrap_or(0));
            let sets = std::array::from_fn(|k| host_set(&self.hosts[32 * (k * n + i)..][..32]));
            out.push((id, row(values, sets)));
        }
    }
}

/// The section walker both reading paths run on a destination section.
/// It locates the ids, counters and host sets, builds each row once
/// into `rows` when asked, then walks the sparse size lists, adding
/// each list to its row. Returns the last row id.
fn walk_dst(
    r: &mut Reader<'_>,
    mut rows: Option<&mut Vec<(u32, DstBlockStats)>>,
) -> Result<Option<u32>, StoreError> {
    let located = locate::<5, 3>(r)?;
    let (n, last) = (located.ids.len(), located.ids.last());
    if let Some(rows) = rows.as_deref_mut() {
        located.rows(rows, |c, [received, received_tcp, received_big_tcp]| {
            DstBlockStats {
                tcp_packets: c[0],
                tcp_octets: c[1],
                udp_packets: c[2],
                icmp_packets: c[3],
                other_packets: c[4],
                received,
                received_tcp,
                received_big_tcp,
                tcp_sizes: SizeHistogram::EMPTY,
            }
        });
    }
    let sized = r.delta_span(|_| Ok(()))?;
    for i in sized.iter() {
        let i = i as usize;
        if i >= n {
            return Err(StoreError::Corrupt("size histogram for nonexistent row"));
        }
        let sizes = r.delta_span(|size| {
            u16::try_from(size)
                .map(drop)
                .map_err(|_| StoreError::Corrupt("size exceeds u16"))
        })?;
        let counts = r.varint_column(sizes.len())?;
        // The sizes ascend, so each `add` appends an entry.
        if let Some((_, row)) = rows.as_deref_mut().and_then(|rows| rows.get_mut(i)) {
            for (size, count) in sizes.iter().zip(counts) {
                row.tcp_sizes.add(size as u16, count);
            }
        }
    }
    Ok(last)
}

/// The section walker for a source section: ids, the packet column and
/// the originating host sets, with no size lists.
fn walk_src(
    r: &mut Reader<'_>,
    rows: Option<&mut Vec<(u32, SrcBlockStats)>>,
) -> Result<Option<u32>, StoreError> {
    let located = locate::<1, 1>(r)?;
    let last = located.ids.last();
    if let Some(rows) = rows {
        located.rows(rows, |[packets], [originating]| SrcBlockStats {
            packets,
            originating,
        });
    }
    Ok(last)
}

/// A host set from its 32 little-endian bytes.
fn host_set(bytes: &[u8]) -> HostSet {
    let mut words = [0u64; 4];
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        *w = u64::from_le_bytes(le);
    }
    HostSet::from_words(words)
}

/// The random windows the integration tests use, shared with the tests
/// below.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The parent's loop: one binary search and one `Vec::insert` per
    /// dark id.
    fn insert_first_dark(seen: &mut Vec<(u32, u32)>, dark: &[u32], day: u32) {
        for &id in dark {
            if let Err(i) = seen.binary_search_by_key(&id, |&(s, _)| s) {
                seen.insert(i, (id, day));
            }
        }
    }

    fn ascending(mut ids: Vec<u32>) -> Vec<u32> {
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The section codec as it was before the section walker: one
    /// strided pass per column to encode, and `n` default rows filled
    /// column by column to decode. Kept as the oracle the fused encoder
    /// and the row-once decoder must match, byte for byte and error
    /// for error.
    mod oracle {
        use super::super::*;

        /// The delta-list loop as it was, so that the oracle shares no
        /// list check with the walker.
        fn delta_list_into<T>(
            r: &mut Reader<'_>,
            out: &mut Vec<T>,
            mut map: impl FnMut(u32) -> Result<T, StoreError>,
        ) -> Result<(), StoreError> {
            let n = r.bounded_len()?;
            out.reserve(n);
            let mut prev = 0u32;
            for i in 0..n {
                let delta = r.varint_u32()?;
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

        fn delta_list(r: &mut Reader<'_>) -> Result<Vec<u32>, StoreError> {
            let mut out = Vec::new();
            delta_list_into(r, &mut out, Ok)?;
            Ok(out)
        }

        /// Appends `N` varint columns, one value per row in each: the
        /// same bytes as `N` passes of `put_varint`, column after
        /// column, made in two passes over `rows`.
        pub(super) fn put_varint_columns<T, const N: usize>(
            out: &mut Vec<u8>,
            rows: &[T],
            fields: impl Fn(&T) -> [u64; N],
        ) {
            let mut lens = [0usize; N];
            for row in rows {
                for (len, v) in lens.iter_mut().zip(fields(row)) {
                    *len += codec::varint_len(v);
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

        pub(super) fn encode_columns(out: &mut Vec<u8>, c: &ColumnSlices) {
            codec::put_varint(out, c.total_flows);
            codec::put_varint(out, c.total_packets);
            codec::put_varint(out, c.total_octets);
            encode_dst_section(out, &c.dst);
            encode_src_section(out, &c.src);
            encode_dst_section(out, &c.ovf_dst);
            encode_src_section(out, &c.ovf_src);
        }

        pub(super) fn decode_columns(
            r: &mut Reader<'_>,
            size_threshold: u16,
            num_slots: u32,
        ) -> Result<ColumnSlices, StoreError> {
            let mut c = ColumnSlices::empty(size_threshold);
            c.total_flows = r.varint()?;
            c.total_packets = r.varint()?;
            c.total_octets = r.varint()?;
            c.dst = decode_dst_section(r)?;
            c.src = decode_src_section(r)?;
            c.ovf_dst = decode_dst_section(r)?;
            c.ovf_src = decode_src_section(r)?;
            if let Some(&(id, _)) = c.dst.last() {
                if id >= num_slots {
                    return Err(StoreError::Corrupt("dst slot id beyond index"));
                }
            }
            if let Some(&(id, _)) = c.src.last() {
                if id >= num_slots {
                    return Err(StoreError::Corrupt("src slot id beyond index"));
                }
            }
            Ok(c)
        }

        fn encode_dst_section(out: &mut Vec<u8>, rows: &[(u32, DstBlockStats)]) {
            codec::put_delta_iter(out, rows.len(), rows.iter().map(|&(id, _)| id));
            put_varint_columns(out, rows, |(_, r)| {
                [
                    r.tcp_packets,
                    r.tcp_octets,
                    r.udp_packets,
                    r.icmp_packets,
                    r.other_packets,
                ]
            });
            put_host_columns(out, rows, |(_, r)| {
                [r.received, r.received_tcp, r.received_big_tcp]
            });
            // Sparse size histograms: most /24s see a handful of sizes, many
            // see none; store only rows that have one.
            let with_sizes = || {
                rows.iter()
                    .enumerate()
                    .filter(|(_, (_, row))| !row.tcp_sizes.is_empty())
            };
            codec::put_delta_iter(
                out,
                with_sizes().count(),
                with_sizes().map(|(i, _)| i as u32),
            );
            for (_, (_, row)) in with_sizes() {
                let sizes = &row.tcp_sizes;
                codec::put_delta_iter(out, sizes.len(), sizes.iter().map(|(s, _)| u32::from(s)));
                for (_, count) in sizes.iter() {
                    codec::put_varint(out, count);
                }
            }
        }

        fn decode_dst_section(r: &mut Reader<'_>) -> Result<Vec<(u32, DstBlockStats)>, StoreError> {
            let ids = delta_list(r)?;
            let mut rows: Vec<(u32, DstBlockStats)> = ids
                .into_iter()
                .map(|id| (id, DstBlockStats::default()))
                .collect();
            for row in rows.iter_mut() {
                row.1.tcp_packets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.tcp_octets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.udp_packets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.icmp_packets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.other_packets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.received = get_hosts(r)?;
            }
            for row in rows.iter_mut() {
                row.1.received_tcp = get_hosts(r)?;
            }
            for row in rows.iter_mut() {
                row.1.received_big_tcp = get_hosts(r)?;
            }
            let with_sizes = delta_list(r)?;
            // One row's sizes, read ahead of their counts; reused across rows.
            let mut sizes: Vec<u16> = Vec::new();
            for i in with_sizes {
                let row = rows
                    .get_mut(i as usize)
                    .ok_or(StoreError::Corrupt("size histogram for nonexistent row"))?;
                // The size ids are a strictly ascending delta list, so each
                // `add` appends a new entry to the row's histogram.
                sizes.clear();
                delta_list_into(r, &mut sizes, |sid| {
                    u16::try_from(sid).map_err(|_| StoreError::Corrupt("size exceeds u16"))
                })?;
                for &size in &sizes {
                    row.1.tcp_sizes.add(size, r.varint()?);
                }
            }
            Ok(rows)
        }

        fn encode_src_section(out: &mut Vec<u8>, rows: &[(u32, SrcBlockStats)]) {
            codec::put_delta_iter(out, rows.len(), rows.iter().map(|&(id, _)| id));
            put_varint_columns(out, rows, |(_, r)| [r.packets]);
            put_host_columns(out, rows, |(_, r)| [r.originating]);
        }

        fn decode_src_section(r: &mut Reader<'_>) -> Result<Vec<(u32, SrcBlockStats)>, StoreError> {
            let ids = delta_list(r)?;
            let mut rows: Vec<(u32, SrcBlockStats)> = ids
                .into_iter()
                .map(|id| (id, SrcBlockStats::default()))
                .collect();
            for row in rows.iter_mut() {
                row.1.packets = r.varint()?;
            }
            for row in rows.iter_mut() {
                row.1.originating = get_hosts(r)?;
            }
            Ok(rows)
        }

        /// Appends `N` host-set columns, each set as its four raw u64 words:
        /// the sets are 32 bytes each, so every column's offset is known and
        /// one pass over `rows` fills them all.
        fn put_host_columns<T, const N: usize>(
            out: &mut Vec<u8>,
            rows: &[T],
            fields: impl Fn(&T) -> [HostSet; N],
        ) {
            let start = out.len();
            out.resize(start + 32 * N * rows.len(), 0);
            let columns = &mut out[start..];
            for (i, row) in rows.iter().enumerate() {
                for (k, hosts) in fields(row).into_iter().enumerate() {
                    let at = 32 * (k * rows.len() + i);
                    for (word, w) in columns[at..at + 32]
                        .chunks_exact_mut(8)
                        .zip(hosts.to_words())
                    {
                        word.copy_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }

        fn get_hosts(r: &mut Reader<'_>) -> Result<HostSet, StoreError> {
            Ok(HostSet::from_words([
                r.u64()?,
                r.u64()?,
                r.u64()?,
                r.u64()?,
            ]))
        }

        /// A window file as the decoder before the section walker read
        /// it.
        pub(super) fn decode_window(bytes: &[u8]) -> Result<WindowData, StoreError> {
            let h = Header::decode(bytes, KIND_WINDOW)?;
            let mut r = Reader::new(h.payload(bytes));
            let records = r.varint()?;
            let columns = decode_columns(&mut r, h.size_threshold, h.num_slots)?;
            let verdicts = Verdicts::decode(&mut r)?;
            let ports = decode_ports(&mut r)?;
            if !r.is_empty() {
                return Err(StoreError::Corrupt("trailing bytes after window payload"));
            }
            Ok(WindowData {
                day: Day(h.day),
                records,
                fingerprint: h.fingerprint,
                num_slots: h.num_slots,
                columns,
                verdicts,
                ports,
            })
        }

        /// A window file as the encoder before the fused sections wrote
        /// it.
        pub(super) fn encode_window(w: &WindowData) -> Vec<u8> {
            let mut out = Vec::new();
            header_room(&mut out, &w.columns);
            codec::put_varint(&mut out, w.records);
            encode_columns(&mut out, &w.columns);
            w.verdicts.encode(&mut out);
            encode_ports(&mut out, &w.ports);
            let c = &w.columns;
            seal(
                &mut out,
                KIND_WINDOW,
                w.day.0,
                1,
                w.fingerprint,
                w.num_slots,
                c.size_threshold,
            );
            out
        }
    }

    use super::common;

    /// A counter or histogram count: small, mid-sized, a power of two
    /// at any width, or anything.
    fn arb_count() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..3,
            0u64..100_000,
            (0u32..64).prop_map(|s| 1u64 << s),
            any::<u64>(),
        ]
    }

    fn arb_dst_rows(bound: u32) -> impl Strategy<Value = Vec<(u32, DstBlockStats)>> {
        let row = (
            any::<u32>(),
            (
                arb_count(),
                arb_count(),
                arb_count(),
                arb_count(),
                arb_count(),
            ),
            any::<u64>(),
            // Up to six sizes with counts past u32::MAX: spilled
            // histograms as well as in-place ones.
            proptest::collection::vec((any::<u16>(), arb_count()), 0..7),
        );
        proptest::collection::vec(row, 0..16).prop_map(move |specs| {
            let mut rows: Vec<(u32, DstBlockStats)> = specs
                .into_iter()
                .map(|(id, c, seed, sizes)| {
                    let row = DstBlockStats {
                        tcp_packets: c.0,
                        tcp_octets: c.1,
                        udp_packets: c.2,
                        icmp_packets: c.3,
                        other_packets: c.4,
                        received: common::hosts(seed),
                        received_tcp: HostSet::from_words([seed, 0, 0, 1]),
                        received_big_tcp: HostSet::from_words([0, 0, seed >> 3, 0]),
                        tcp_sizes: sizes.into_iter().collect(),
                    };
                    (id % bound, row)
                })
                .collect();
            rows.sort_unstable_by_key(|&(id, _)| id);
            rows.dedup_by_key(|row| row.0);
            rows
        })
    }

    fn arb_src_rows(bound: u32) -> impl Strategy<Value = Vec<(u32, SrcBlockStats)>> {
        proptest::collection::vec((any::<u32>(), arb_count(), any::<u64>()), 0..16).prop_map(
            move |specs| {
                let mut rows: Vec<(u32, SrcBlockStats)> = specs
                    .into_iter()
                    .map(|(id, packets, seed)| {
                        let originating = common::hosts(seed);
                        (
                            id % bound,
                            SrcBlockStats {
                                packets,
                                originating,
                            },
                        )
                    })
                    .collect();
                rows.sort_unstable_by_key(|&(id, _)| id);
                rows.dedup_by_key(|row| row.0);
                rows
            },
        )
    }

    /// Column sections with slot ids below 64, so that a decode with a
    /// smaller slot count meets the slot bound; any section may be
    /// empty.
    fn arb_columns() -> impl Strategy<Value = ColumnSlices> {
        (
            arb_dst_rows(64),
            arb_src_rows(64),
            arb_dst_rows(1 << 24),
            arb_src_rows(1 << 24),
            (arb_count(), arb_count(), arb_count()),
            any::<u16>(),
        )
            .prop_map(|(dst, src, ovf_dst, ovf_src, totals, size_threshold)| {
                let mut c = ColumnSlices::empty(size_threshold);
                (c.dst, c.src, c.ovf_dst, c.ovf_src) = (dst, src, ovf_dst, ovf_src);
                (c.total_flows, c.total_packets, c.total_octets) = totals;
                c
            })
    }

    /// A failure as the tests compare it: its reason and its text.
    fn failure(e: &StoreError) -> (&'static str, String) {
        (e.reason(), e.to_string())
    }

    /// What a column reader made of some bytes: the columns and the
    /// bytes it left, or its failure.
    type ColumnsRead = Result<(ColumnSlices, usize), (&'static str, String)>;

    fn fused(c: &ColumnSlices) -> Vec<u8> {
        let mut out = Vec::new();
        encode_columns(&mut out, c);
        out
    }

    fn row_once(bytes: &[u8], num_slots: u32, threshold: u16) -> ColumnsRead {
        let mut r = Reader::new(bytes);
        let mut c = ColumnSlices::empty(threshold);
        match walk_columns(&mut r, num_slots, Some(&mut c)) {
            Ok(()) => Ok((c, r.remaining())),
            Err(e) => Err(failure(&e)),
        }
    }

    fn by_oracle(bytes: &[u8], num_slots: u32, threshold: u16) -> ColumnsRead {
        let mut r = Reader::new(bytes);
        match oracle::decode_columns(&mut r, threshold, num_slots) {
            Ok(c) => Ok((c, r.remaining())),
            Err(e) => Err(failure(&e)),
        }
    }

    fn walk_only(bytes: &[u8], num_slots: u32) -> Result<usize, (&'static str, String)> {
        let mut r = Reader::new(bytes);
        match walk_columns(&mut r, num_slots, None) {
            Ok(()) => Ok(r.remaining()),
            Err(e) => Err(failure(&e)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused encoder writes the oracle's bytes, column sections
        /// with spilled size histograms and empty sections included.
        #[test]
        fn the_fused_encoder_writes_the_oracles_bytes(c in arb_columns()) {
            let mut old = Vec::new();
            oracle::encode_columns(&mut old, &c);
            prop_assert_eq!(fused(&c), old);
        }

        /// On the encoding, cut at every length and with a byte changed
        /// at every seventh offset, the row-once decoder reads what the
        /// oracle reads and fails as it fails, and the walk without
        /// rows stops where both stop.
        #[test]
        fn the_row_once_decoder_reads_the_oracles_rows(
            c in arb_columns(),
            num_slots in 1u32..=64,
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let bytes = fused(&c);
            let th = c.size_threshold;
            prop_assert_eq!(row_once(&bytes, 64, th), Ok((c.clone(), 0)));
            let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
            let flips = (at % 7..bytes.len()).step_by(7).map(|pos| {
                let mut b = bytes.clone();
                b[pos] ^= mask;
                b
            });
            for b in std::iter::once(bytes.clone()).chain(cuts).chain(flips) {
                let oracle = by_oracle(&b, num_slots, th);
                prop_assert_eq!(walk_only(&b, num_slots), oracle.clone().map(|(_, left)| left));
                prop_assert_eq!(row_once(&b, num_slots, th), oracle);
            }
        }

        /// The oracle's two-pass varint columns are the bytes of one
        /// pass of `put_varint` per column.
        #[test]
        fn varint_columns_equal_one_pass_per_column(
            rows in proptest::collection::vec((arb_count(), arb_count(), arb_count()), 0..64),
        ) {
            let mut by_column = vec![9];
            for k in 0..3 {
                for row in &rows {
                    codec::put_varint(&mut by_column, [row.0, row.1, row.2][k]);
                }
            }
            let mut at_once = vec![9];
            oracle::put_varint_columns(&mut at_once, &rows, |row| [row.0, row.1, row.2]);
            prop_assert_eq!(at_once, by_column);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The verdict-only load returns what `decode` returns, the
        /// fingerprint and verdicts or the same failure, on a window
        /// intact and under every damage the round-trip vectors apply:
        /// truncation at every length (as cut, and with the header
        /// resealed over the shorter payload), single-bit flips with
        /// and without reseal, and a wrong magic, kind or version. The
        /// decoder meanwhile matches the oracle, row for row and error
        /// for error, and the fused encoder writes the oracle's file.
        #[test]
        fn verdict_load_agrees_with_decode(
            spec in common::arb_window(),
            at in any::<usize>(),
            bit in 0u8..8,
        ) {
            let w = common::build_window(&spec);
            let bytes = w.encode();
            prop_assert_eq!(&bytes, &oracle::encode_window(&w));
            let check = |b: &[u8]| {
                let decoded = WindowData::decode(b);
                let oracle = oracle::decode_window(b);
                prop_assert_eq!(
                    decoded.as_ref().map_err(failure),
                    oracle.as_ref().map_err(failure)
                );
                let verdicts = WindowData::decode_verdicts(b);
                prop_assert_eq!(
                    verdicts.map_err(|e| failure(&e)),
                    decoded.map(|w| (w.fingerprint, w.verdicts)).map_err(|e| failure(&e))
                );
            };
            check(&bytes);
            prop_assert_eq!(
                WindowData::decode_verdicts(&bytes).ok(),
                Some((w.fingerprint, w.verdicts.clone()))
            );
            for cut in 0..bytes.len() {
                check(&bytes[..cut]);
                if cut >= HEADER_LEN && cut % 3 == at % 3 {
                    let mut b = bytes[..cut].to_vec();
                    b[40..48].copy_from_slice(&((cut - HEADER_LEN) as u64).to_le_bytes());
                    reseal(&mut b);
                    check(&b);
                }
            }
            for pos in (at % 5..bytes.len()).step_by(5) {
                let mut b = bytes.clone();
                b[pos] ^= 1 << bit;
                check(&b);
                reseal(&mut b);
                check(&b);
            }
            for (range, value) in [(0..8, &b"MTSTORXX"[..]), (12..13, &[KIND_SUMMARY][..]), (8..12, &3u32.to_le_bytes()[..])] {
                let mut b = bytes.clone();
                b[range].copy_from_slice(value);
                check(&b);
                reseal(&mut b);
                check(&b);
            }
        }
    }

    proptest! {
        /// Day after day over a small id space, so that later windows
        /// mostly re-meet ids seen before: the merged list equals the
        /// insertion loop's, first-seen days included.
        #[test]
        fn linear_merge_equals_the_insertion_loop(
            windows in proptest::collection::vec(proptest::collection::vec(0u32..64, 0..40), 1..6),
        ) {
            let (mut merged, mut inserted) = (Vec::new(), Vec::new());
            for (day, dark) in windows.into_iter().enumerate() {
                let dark = ascending(dark);
                merge_first_dark(&mut merged, &dark, day as u32);
                insert_first_dark(&mut inserted, &dark, day as u32);
                prop_assert_eq!(&merged, &inserted);
            }
        }
    }

    #[test]
    fn first_seen_days_survive_later_sightings() {
        let mut seen = vec![(3, 0), (7, 0)];
        merge_first_dark(&mut seen, &[1, 3, 5, 7, 9], 4);
        assert_eq!(seen, [(1, 4), (3, 0), (5, 4), (7, 0), (9, 4)]);
        merge_first_dark(&mut seen, &[], 5);
        assert_eq!(seen.len(), 5);
    }
}
