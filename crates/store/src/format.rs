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
//! mostly one byte each.

use crate::codec::{self, Reader};
use crate::error::StoreError;
use mt_core::PipelineResult;
use mt_flow::{ColumnSlices, DstBlockStats, HostSet, SrcBlockStats, TrafficStats, TrafficView};
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
        let columns = decode_columns(&mut r, h.size_threshold, h.num_slots)?;
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
    encode_dst_section(out, &c.dst);
    encode_src_section(out, &c.src);
    encode_dst_section(out, &c.ovf_dst);
    encode_src_section(out, &c.ovf_src);
}

fn decode_columns(
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
    codec::put_varint_columns(out, rows, |(_, r)| {
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
    let ids = r.delta_list()?;
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
    let with_sizes = r.delta_list()?;
    // One row's sizes, read ahead of their counts; reused across rows.
    let mut sizes: Vec<u16> = Vec::new();
    for i in with_sizes {
        let row = rows
            .get_mut(i as usize)
            .ok_or(StoreError::Corrupt("size histogram for nonexistent row"))?;
        // The size ids are a strictly ascending delta list, so each
        // `add` appends a new entry to the row's histogram.
        sizes.clear();
        r.delta_list_into(&mut sizes, |sid| {
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
    codec::put_varint_columns(out, rows, |(_, r)| [r.packets]);
    put_host_columns(out, rows, |(_, r)| [r.originating]);
}

fn decode_src_section(r: &mut Reader<'_>) -> Result<Vec<(u32, SrcBlockStats)>, StoreError> {
    let ids = r.delta_list()?;
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
