//! The in-memory query side: a slot-indexed cache answering point
//! lookups and per-window range scans, cold-loadable from disk.
//!
//! The serve daemon keeps one [`QueryIndex`] per store: the running
//! summary (merged columns + combined verdicts + first-dark days), the
//! summary-wide top ports, and each persisted window's verdict lists
//! keyed by day. Work proportional to the summary is done once per
//! closed window ([`QueryIndex::apply_window`]) or once per
//! [`QueryIndex::cold_load`], never per request (a cold load validates
//! each window file in full but builds none of its rows):
//!
//! - a **point lookup** is a handful of binary searches over the
//!   summary's ascending id lists, one sort of the row's own (few)
//!   TCP sizes, and a copy of the ten precomputed top ports — the
//!   port histogram itself (tens of thousands of entries on world
//!   traffic) is only walked when it changes;
//! - a **range scan** enters each of the window's six ascending
//!   verdict lists with `partition_point` and leaves it at `to` (slot
//!   order is address order, [`Slot24Index`]'s guarantee), so it costs
//!   `O(log n + answers)` however many verdicts the window holds.
//!
//! Both are total — unknown days and unroutable blocks are answers,
//! not errors.

use crate::error::StoreError;
use crate::format::{SummaryData, Verdicts, WindowData};
use crate::store::ResultsStore;
use mt_core::PipelineResult;
use mt_types::{Block24, Day, Ipv4, Slot24Index};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What cold-loading a store cost.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ColdLoad {
    /// Window files loaded.
    pub windows: usize,
    /// Total bytes read and validated.
    pub bytes: u64,
    /// Window files that failed validation and were moved to the
    /// store's quarantine directory instead of being loaded.
    pub quarantined: usize,
}

/// The answer to a point lookup.
#[derive(Debug, Clone, Serialize)]
pub struct BlockReport {
    /// The /24 asked about, e.g. `20.1.2.0`.
    pub block: String,
    /// Whether the block is inside announced (slot-indexed) space.
    pub routed: bool,
    /// `dark`, `unclean`, `gray`, `active` (traffic but no verdict),
    /// or `unseen`.
    pub verdict: &'static str,
    /// First day the block was classified dark, if it ever was.
    pub since_day: Option<u32>,
    /// Windows merged into the summary answering this.
    pub windows: u32,
    /// Days spanned by the summary.
    pub span_days: u32,
    /// Traffic profile, when the block received anything.
    pub profile: Option<BlockProfile>,
    /// Top destination ports across the summary span (global, the
    /// store keeps port histograms per window, not per /24).
    pub top_ports: Vec<PortCount>,
}

/// Per-block traffic profile from the merged columns.
#[derive(Debug, Clone, Serialize)]
pub struct BlockProfile {
    /// Sampled TCP packets destined to the block.
    pub tcp_packets: u64,
    /// Sampled TCP octets.
    pub tcp_octets: u64,
    /// Sampled UDP packets.
    pub udp_packets: u64,
    /// Sampled ICMP packets.
    pub icmp_packets: u64,
    /// Sampled packets of other protocols.
    pub other_packets: u64,
    /// Distinct hosts that received any sampled packet.
    pub hosts: u32,
    /// Top TCP packet sizes by sampled count, at most five.
    pub top_sizes: Vec<SizeCount>,
}

/// One `(port, packets)` histogram entry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PortCount {
    /// Destination port.
    pub port: u16,
    /// Sampled packets to that port.
    pub count: u64,
}

/// One `(size, packets)` histogram entry.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SizeCount {
    /// TCP packet size in octets.
    pub size: u16,
    /// Sampled packets of that size.
    pub count: u64,
}

/// One row of a range scan.
#[derive(Debug, Clone, Serialize)]
pub struct RangeEntry {
    /// The /24, e.g. `20.1.2.0`.
    pub block: String,
    /// `dark`, `unclean`, or `gray`.
    pub verdict: &'static str,
}

/// The answer to a per-window range scan.
#[derive(Debug, Clone, Serialize)]
pub struct RangeReport {
    /// The window day scanned.
    pub day: u32,
    /// First block of the requested range.
    pub from: String,
    /// Last block of the requested range.
    pub to: String,
    /// Verdicts in range before truncation.
    pub total: usize,
    /// True when the entry list was capped.
    pub truncated: bool,
    /// The verdicts, ascending by block.
    pub verdicts: Vec<RangeEntry>,
}

/// Range scans cap their entry list here and set `truncated` instead
/// of streaming unbounded JSON.
pub const RANGE_SCAN_CAP: usize = 4096;

/// The in-memory, slot-indexed cache the serve daemon queries.
#[derive(Debug)]
pub struct QueryIndex {
    slots: Arc<Slot24Index>,
    summary: SummaryData,
    /// The top ten of `summary.ports`, refreshed whenever that
    /// histogram changes, so that no lookup walks it.
    top_ports: Vec<PortCount>,
    windows: BTreeMap<Day, Verdicts>,
}

/// Ports reported with every point answer.
const TOP_PORTS: usize = 10;

impl QueryIndex {
    /// An empty index over the given slot index.
    pub fn new(slots: Arc<Slot24Index>) -> QueryIndex {
        QueryIndex {
            slots,
            summary: SummaryData::empty(),
            top_ports: Vec::new(),
            windows: BTreeMap::new(),
        }
    }

    /// Loads everything the store has persisted: the summary, decoded
    /// whole, plus each window's verdict lists. A window file is not
    /// decoded into rows: the verdict-only load
    /// ([`WindowData::decode_verdicts`]) walks its column sections and
    /// makes every check a decode makes, then keeps only the verdicts.
    /// Every file is checksum-validated and fingerprint-gated on the
    /// way in. A window file that fails is moved to
    /// [`ResultsStore::quarantine_dir`] and its day reads as never
    /// persisted; a summary that fails, or an i/o error, is the load's
    /// error.
    pub fn cold_load(store: &ResultsStore) -> Result<(QueryIndex, ColdLoad), StoreError> {
        QueryIndex::cold_load_with(store, |_, _| {})
    }

    /// [`cold_load`](Self::cold_load), calling `on_quarantine` with the
    /// day and the validation error of each window file it moves aside
    /// — the same error a full decode of the file would give.
    pub fn cold_load_with(
        store: &ResultsStore,
        mut on_quarantine: impl FnMut(Day, &StoreError),
    ) -> Result<(QueryIndex, ColdLoad), StoreError> {
        let mut index = QueryIndex::new(Arc::clone(store.slots()));
        let mut bytes = 0u64;
        if let Some((summary, read)) = store.load_summary()? {
            bytes += read;
            index.top_ports = top_ports(&summary.ports, TOP_PORTS);
            index.summary = summary;
        }
        let mut quarantined = 0;
        for day in store.window_days()? {
            let (verdicts, read) = match store.load_window_verdicts(day) {
                Ok(loaded) => loaded,
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(invalid) => {
                    store.quarantine_window(day)?;
                    quarantined += 1;
                    on_quarantine(day, &invalid);
                    continue;
                }
            };
            bytes += read;
            index.windows.insert(day, verdicts);
        }
        let windows = index.windows.len();
        Ok((
            index,
            ColdLoad {
                windows,
                bytes,
                quarantined,
            },
        ))
    }

    /// Folds a freshly closed window into the cache: merges it into
    /// the running summary (typed errors on fingerprint/threshold/
    /// order mismatch), installs the combined verdicts, and records
    /// the window's own verdicts for range scans.
    pub fn apply_window(
        &mut self,
        w: &WindowData,
        combined: &PipelineResult,
    ) -> Result<(), StoreError> {
        let combined = Verdicts::from_result(combined, &self.slots);
        self.apply_verdicts(w, w.verdicts.clone(), combined)
    }

    /// The part of [`apply_window`](Self::apply_window) that needs
    /// `&mut self`, for callers that share the index behind a lock:
    /// the two verdict sets — the window's own (a copy of
    /// `w.verdicts`) and the combined result's — are built outside the
    /// exclusive section and moved in.
    pub fn apply_verdicts(
        &mut self,
        w: &WindowData,
        window: Verdicts,
        combined: Verdicts,
    ) -> Result<(), StoreError> {
        self.summary.merge_window(w)?;
        self.summary.set_verdicts(combined);
        self.top_ports = top_ports(&self.summary.ports, TOP_PORTS);
        self.windows.insert(w.day, window);
        Ok(())
    }

    /// The running summary.
    pub fn summary(&self) -> &SummaryData {
        &self.summary
    }

    /// Days with a cached window, ascending.
    pub fn window_days(&self) -> impl Iterator<Item = Day> + '_ {
        self.windows.keys().copied()
    }

    /// Answers a point lookup for the /24 containing `addr`.
    pub fn point(&self, addr: Ipv4) -> BlockReport {
        let block = Block24::containing(addr);
        let slot = self.slots.slot_of(block);
        let v = &self.summary.verdicts;
        let (verdict_lists, since_list, key): (_, &[(u32, u32)], u32) = match slot {
            Some(s) => (
                [&v.dark_slots, &v.unclean_slots, &v.gray_slots],
                &self.summary.first_dark_slots,
                s,
            ),
            None => (
                [&v.dark_blocks, &v.unclean_blocks, &v.gray_blocks],
                &self.summary.first_dark_blocks,
                block.0,
            ),
        };
        let profile = self.profile_of(slot, block);
        let verdict = if verdict_lists[0].binary_search(&key).is_ok() {
            "dark"
        } else if verdict_lists[1].binary_search(&key).is_ok() {
            "unclean"
        } else if verdict_lists[2].binary_search(&key).is_ok() {
            "gray"
        } else if profile.is_some() {
            "active"
        } else {
            "unseen"
        };
        let since_day = since_list
            .binary_search_by_key(&key, |&(id, _)| id)
            .ok()
            .map(|i| since_list[i].1);
        BlockReport {
            block: block.base().to_string(),
            routed: slot.is_some(),
            verdict,
            since_day,
            windows: self.summary.windows,
            span_days: self.summary.span_days,
            profile,
            top_ports: self.top_ports.clone(),
        }
    }

    /// Scans one window's verdicts over `[from, to]`. `None` means the
    /// day has no persisted window (a 404, not an error).
    pub fn range(&self, day: Day, from: Block24, to: Block24) -> Option<RangeReport> {
        let v = self.windows.get(&day)?;
        let mut total = 0;
        let mut entries: Vec<(u32, &'static str)> = Vec::new();
        // Each list ascends by block: enter at `from`, leave at `to`.
        // The first RANGE_SCAN_CAP of the merged answer lie within the
        // first RANGE_SCAN_CAP of each list, so that is all we copy.
        let mut collect = |ids: &[u32], block_of: &dyn Fn(u32) -> u32, verdict: &'static str| {
            let lo = ids.partition_point(|&id| block_of(id) < from.0);
            let hi = lo + ids[lo..].partition_point(|&id| block_of(id) <= to.0);
            total += hi - lo;
            let kept = &ids[lo..hi.min(lo + RANGE_SCAN_CAP)];
            entries.extend(kept.iter().map(|&id| (block_of(id), verdict)));
        };
        let of_slot = |slot: u32| self.slots.block_of(slot).0;
        collect(&v.dark_slots, &of_slot, "dark");
        collect(&v.unclean_slots, &of_slot, "unclean");
        collect(&v.gray_slots, &of_slot, "gray");
        let of_block = |id: u32| id;
        collect(&v.dark_blocks, &of_block, "dark");
        collect(&v.unclean_blocks, &of_block, "unclean");
        collect(&v.gray_blocks, &of_block, "gray");
        entries.sort_unstable_by_key(|&(id, _)| id);
        let truncated = total > RANGE_SCAN_CAP;
        entries.truncate(RANGE_SCAN_CAP);
        Some(RangeReport {
            day: day.0,
            from: from.base().to_string(),
            to: to.base().to_string(),
            total,
            truncated,
            verdicts: entries
                .into_iter()
                .map(|(id, verdict)| RangeEntry {
                    block: Block24(id).base().to_string(),
                    verdict,
                })
                .collect(),
        })
    }

    fn profile_of(&self, slot: Option<u32>, block: Block24) -> Option<BlockProfile> {
        let c = &self.summary.columns;
        let row = match slot {
            Some(s) => c
                .dst
                .binary_search_by_key(&s, |&(id, _)| id)
                .ok()
                .map(|i| &c.dst[i].1),
            None => c
                .ovf_dst
                .binary_search_by_key(&block.0, |&(id, _)| id)
                .ok()
                .map(|i| &c.ovf_dst[i].1),
        }?;
        let mut sizes: Vec<SizeCount> = row
            .tcp_sizes
            .iter()
            .map(|(size, count)| SizeCount { size, count })
            .collect();
        sizes.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.size.cmp(&b.size)));
        sizes.truncate(5);
        Some(BlockProfile {
            tcp_packets: row.tcp_packets,
            tcp_octets: row.tcp_octets,
            udp_packets: row.udp_packets,
            icmp_packets: row.icmp_packets,
            other_packets: row.other_packets,
            hosts: row.received.len(),
            top_sizes: sizes,
        })
    }
}

/// Top `n` ports by count (count descending, port ascending on ties),
/// in one pass over a histogram sorted by port: an entry displaces
/// only strictly smaller counts, so among equals the lower port —
/// met first — stays ahead.
fn top_ports(ports: &[(u16, u64)], n: usize) -> Vec<PortCount> {
    let mut top: Vec<PortCount> = Vec::with_capacity(n + 1);
    for &(port, count) in ports {
        if top.len() == n && top.last().is_some_and(|least| count <= least.count) {
            continue;
        }
        let at = top.partition_point(|t| t.count >= count);
        top.insert(at, PortCount { port, count });
        top.truncate(n);
    }
    top
}

#[cfg(test)]
mod tests {
    //! Differential tests: the answer path against the parent's
    //! per-request implementations, kept here as oracles.

    use super::*;
    use crate::store::StoreConfig;
    use mt_core::Funnel;
    use mt_flow::ColumnSlices;
    use mt_types::{Asn, PrefixTrie, RibIndex};
    use proptest::prelude::*;

    /// The parent's `top_ports`: sort the whole histogram, keep `n`.
    fn top_ports_oracle(ports: &[(u16, u64)], n: usize) -> Vec<PortCount> {
        let mut out: Vec<PortCount> = ports
            .iter()
            .map(|&(port, count)| PortCount { port, count })
            .collect();
        out.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.port.cmp(&b.port)));
        out.truncate(n);
        out
    }

    impl QueryIndex {
        /// The parent's `point`: everything but the top ports is the
        /// code under test's own (it did not change); the top ports
        /// are re-sorted out of the whole histogram on every call.
        fn point_oracle(&self, addr: Ipv4) -> BlockReport {
            BlockReport {
                top_ports: top_ports_oracle(&self.summary.ports, 10),
                ..self.point(addr)
            }
        }

        /// The parent's `range`: a `block_of` call and a bounds test
        /// per verdict of the window.
        fn range_oracle(&self, day: Day, from: Block24, to: Block24) -> Option<RangeReport> {
            let v = self.windows.get(&day)?;
            let mut entries: Vec<(u32, &'static str)> = Vec::new();
            let mut collect_slots = |ids: &[u32], verdict: &'static str| {
                for &slot in ids {
                    let b = self.slots.block_of(slot);
                    if b >= from && b <= to {
                        entries.push((b.0, verdict));
                    }
                }
            };
            collect_slots(&v.dark_slots, "dark");
            collect_slots(&v.unclean_slots, "unclean");
            collect_slots(&v.gray_slots, "gray");
            let mut collect_blocks = |ids: &[u32], verdict: &'static str| {
                for &id in ids {
                    if id >= from.0 && id <= to.0 {
                        entries.push((id, verdict));
                    }
                }
            };
            collect_blocks(&v.dark_blocks, "dark");
            collect_blocks(&v.unclean_blocks, "unclean");
            collect_blocks(&v.gray_blocks, "gray");
            entries.sort_unstable_by_key(|&(id, _)| id);
            let total = entries.len();
            let truncated = total > RANGE_SCAN_CAP;
            entries.truncate(RANGE_SCAN_CAP);
            Some(RangeReport {
                day: day.0,
                from: from.base().to_string(),
                to: to.base().to_string(),
                total,
                truncated,
                verdicts: entries
                    .into_iter()
                    .map(|(id, verdict)| RangeEntry {
                        block: Block24(id).base().to_string(),
                        verdict,
                    })
                    .collect(),
            })
        }
    }

    fn json<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("reports serialize")
    }

    /// Announced space with gaps: 10.0.0.0/24, 10.0.2.0/23, 10.1.0.0/16
    /// and 192.0.2.0/24 — 1 + 2 + 256 + 1 slots.
    fn gapped_slots() -> Arc<Slot24Index> {
        let mut rib = PrefixTrie::new();
        for p in ["10.0.0.0/24", "10.0.2.0/23", "10.1.0.0/16", "192.0.2.0/24"] {
            rib.insert(p.parse().expect("prefix"), Asn(1));
        }
        Arc::new(Slot24Index::build(&RibIndex::build(&rib)))
    }

    /// Unrouted blocks below, inside the gaps of, and above
    /// [`gapped_slots`], ascending.
    const OVERFLOW_POOL: [u32; 8] = [
        0x00_0000, // 0.0.0.0
        0x09_ffff, // 9.255.255.0
        0x0a_0001, // 10.0.1.0, between the /24 and the /23
        0x0a_0004, // 10.0.4.0, right behind the /23
        0x0a_00ff, // 10.0.255.0, right before the /16
        0x0a_0200, // 10.2.0.0, right behind the /16
        0xc0_0001, // 192.0.1.0
        0xff_ffff, // 255.255.255.0
    ];

    /// Splits ascending `ids` over the three verdicts by `classes`
    /// (0 = none), so the lists stay ascending and disjoint.
    fn classify(ids: impl Iterator<Item = u32>, classes: &[u8]) -> [Vec<u32>; 3] {
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        for (id, &class) in ids.zip(classes) {
            if let Some(list) = usize::from(class).checked_sub(1) {
                out[list].push(id);
            }
        }
        out
    }

    #[derive(Debug, Clone)]
    struct WindowSpec {
        slot_classes: Vec<u8>,
        overflow_classes: Vec<u8>,
        ports: Vec<(u16, u64)>,
    }

    /// Few distinct counts over few distinct ports: ties are the rule,
    /// and fewer than ten ports is common.
    fn arb_window() -> impl Strategy<Value = WindowSpec> {
        (
            proptest::collection::vec(0u8..4, 260),
            proptest::collection::vec(0u8..4, OVERFLOW_POOL.len()),
            proptest::collection::vec((0u16..24, 1u64..4), 0..24),
        )
            .prop_map(|(slot_classes, overflow_classes, ports)| WindowSpec {
                slot_classes,
                overflow_classes,
                ports: histogram(ports),
            })
    }

    /// Sorts by port and keeps one entry per port.
    fn histogram(mut ports: Vec<(u16, u64)>) -> Vec<(u16, u64)> {
        ports.sort_unstable();
        ports.dedup_by_key(|&mut (port, _)| port);
        ports
    }

    fn build_window(day: u32, spec: &WindowSpec, slots: &Slot24Index) -> WindowData {
        let [dark_slots, unclean_slots, gray_slots] =
            classify(0..slots.num_slots(), &spec.slot_classes);
        let [dark_blocks, unclean_blocks, gray_blocks] =
            classify(OVERFLOW_POOL.into_iter(), &spec.overflow_classes);
        WindowData {
            day: Day(day),
            records: 1,
            fingerprint: slots.fingerprint(),
            num_slots: slots.num_slots(),
            columns: ColumnSlices::empty(100),
            verdicts: Verdicts {
                dark_slots,
                unclean_slots,
                gray_slots,
                dark_blocks,
                unclean_blocks,
                gray_blocks,
            },
            ports: spec.ports.clone(),
        }
    }

    /// A combined result equal to the window's own verdicts.
    fn result_of(w: &WindowData, slots: &Slot24Index) -> PipelineResult {
        let (dark, unclean, gray) = w.verdicts.to_sets(slots);
        PipelineResult {
            dark,
            unclean,
            gray,
            funnel: Funnel::default(),
            spoof_tolerance: 0,
        }
    }

    fn index_of(specs: &[WindowSpec], slots: &Arc<Slot24Index>) -> QueryIndex {
        let mut index = QueryIndex::new(Arc::clone(slots));
        for (day, spec) in specs.iter().enumerate() {
            let w = build_window(day as u32, spec, slots);
            index
                .apply_window(&w, &result_of(&w, slots))
                .expect("windows in day order");
        }
        index
    }

    /// Every block a generated window can mention, plus one that none
    /// can (10.0.5.0 is neither announced nor in the pool).
    fn probe_blocks(slots: &Slot24Index) -> Vec<u32> {
        let mut blocks: Vec<u32> = (0..slots.num_slots())
            .map(|s| slots.block_of(s).0)
            .chain(OVERFLOW_POOL)
            .chain([0x0a_0005])
            .collect();
        blocks.sort_unstable();
        blocks
    }

    fn temp_store(tag: &str, slots: &Arc<Slot24Index>) -> ResultsStore {
        let dir = std::env::temp_dir().join(format!("mt-store-query-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultsStore::open(StoreConfig {
            dir,
            slots: Arc::clone(slots),
        })
        .expect("open store")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn top_ports_match_the_full_sort(
            ports in proptest::collection::vec((any::<u16>(), 0u64..6), 0..40),
            n in 0usize..12,
        ) {
            let ports = histogram(ports);
            prop_assert_eq!(json(&top_ports(&ports, n)), json(&top_ports_oracle(&ports, n)));
        }

        #[test]
        fn point_matches_the_parent_on_every_block(
            specs in proptest::collection::vec(arb_window(), 1..4),
        ) {
            let slots = gapped_slots();
            let index = index_of(&specs, &slots);
            for block in probe_blocks(&slots) {
                let addr = Block24(block).base();
                prop_assert_eq!(json(&index.point(addr)), json(&index.point_oracle(addr)));
            }
        }

        #[test]
        fn range_matches_the_parent_on_every_pair_of_bounds(
            spec in arb_window(),
            picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 24),
        ) {
            let slots = gapped_slots();
            let index = index_of(std::slice::from_ref(&spec), &slots);
            let blocks = probe_blocks(&slots);
            // Bounds drawn from the blocks themselves, so ranges start
            // and end on verdicts, in gaps, and on overflow ids, and
            // `from == to` comes up.
            for (a, b) in picks {
                let (a, b) = (blocks[a % blocks.len()], blocks[b % blocks.len()]);
                let (from, to) = (Block24(a.min(b)), Block24(a.max(b)));
                prop_assert_eq!(
                    json(&index.range(Day(0), from, to)),
                    json(&index.range_oracle(Day(0), from, to))
                );
                prop_assert_eq!(
                    json(&index.range(Day(0), from, from)),
                    json(&index.range_oracle(Day(0), from, from))
                );
            }
            prop_assert_eq!(
                json(&index.range(Day(0), Block24(0), Block24(0x00ff_ffff))),
                json(&index.range_oracle(Day(0), Block24(0), Block24(0x00ff_ffff)))
            );
            prop_assert!(index.range(Day(1), Block24(0), Block24(0x00ff_ffff)).is_none());
        }

        #[test]
        fn cold_load_answers_as_the_live_index_does(
            specs in proptest::collection::vec(arb_window(), 1..4),
        ) {
            let slots = gapped_slots();
            let store = temp_store("cold", &slots);
            let live = index_of(&specs, &slots);
            for (day, spec) in specs.iter().enumerate() {
                store.write_window(&build_window(day as u32, spec, &slots)).expect("persist window");
            }
            store.write_summary(live.summary()).expect("persist summary");
            let (cold, _) = QueryIndex::cold_load(&store).expect("cold load");
            prop_assert_eq!(json(&cold.top_ports), json(&live.top_ports));
            for block in probe_blocks(&slots) {
                let addr = Block24(block).base();
                prop_assert_eq!(json(&cold.point(addr)), json(&live.point(addr)));
                prop_assert_eq!(json(&cold.point(addr)), json(&cold.point_oracle(addr)));
            }
            for day in 0..specs.len() as u32 {
                prop_assert_eq!(
                    json(&cold.range(Day(day), Block24(0), Block24(0x00ff_ffff))),
                    json(&live.range(Day(day), Block24(0), Block24(0x00ff_ffff)))
                );
            }
            std::fs::remove_dir_all(store.dir()).ok();
        }
    }

    #[test]
    fn an_empty_index_answers_unseen_with_no_ports() {
        let index = QueryIndex::new(gapped_slots());
        for addr in [Ipv4::new(10, 1, 2, 3), Ipv4::new(8, 8, 8, 8)] {
            let report = index.point(addr);
            assert_eq!(json(&report), json(&index.point_oracle(addr)));
            assert_eq!(report.verdict, "unseen");
            assert!(report.top_ports.is_empty());
        }
        assert!(index.range(Day(0), Block24(0), Block24(1)).is_none());
    }

    #[test]
    fn ties_in_port_counts_are_broken_by_port_ascending() {
        let ports: Vec<(u16, u64)> = (0..30).map(|p| (p, u64::from(p % 3))).collect();
        let top: Vec<(u16, u64)> = top_ports(&ports, 10)
            .iter()
            .map(|p| (p.port, p.count))
            .collect();
        let expected: Vec<(u16, u64)> = (0..10).map(|i| (2 + 3 * i, 2)).collect();
        assert_eq!(top, expected);
    }

    #[test]
    fn a_scan_past_the_cap_keeps_the_lowest_blocks_and_the_full_total() {
        // 16 384 slots, every one carrying a verdict, spread over the
        // three lists so no single list holds the first 4 096 blocks.
        let mut rib = PrefixTrie::new();
        rib.insert("20.0.0.0/10".parse().expect("prefix"), Asn(1));
        let slots = Arc::new(Slot24Index::build(&RibIndex::build(&rib)));
        let classes: Vec<u8> = (0..slots.num_slots()).map(|s| (s % 3) as u8 + 1).collect();
        let spec = WindowSpec {
            slot_classes: classes,
            overflow_classes: vec![1; OVERFLOW_POOL.len()],
            ports: Vec::new(),
        };
        let index = index_of(std::slice::from_ref(&spec), &slots);
        let all = (Block24(0), Block24(0x00ff_ffff));
        let report = index.range(Day(0), all.0, all.1).expect("day 0");
        assert_eq!(report.total, 16_384 + OVERFLOW_POOL.len());
        assert!(report.truncated);
        assert_eq!(report.verdicts.len(), RANGE_SCAN_CAP);
        assert_eq!(
            json(&report),
            json(&index.range_oracle(Day(0), all.0, all.1))
        );
        // Exactly at the cap nothing is cut.
        let from = Block24(20 << 16);
        let to = Block24(from.0 + RANGE_SCAN_CAP as u32 - 1);
        let report = index.range(Day(0), from, to).expect("day 0");
        assert_eq!((report.total, report.truncated), (RANGE_SCAN_CAP, false));
        assert_eq!(json(&report), json(&index.range_oracle(Day(0), from, to)));
    }
}
