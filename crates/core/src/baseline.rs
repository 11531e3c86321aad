//! Baselines the paper improves on.
//!
//! Two comparators:
//!
//! - [`origin_only`] — "a /24 is dark if it receives traffic but never
//!   sends any", the obvious first cut (and what the ISP labeling of
//!   Section 4.1 starts from). It lacks the packet-size fingerprint and
//!   the volume cap, so it swallows every active block whose outbound
//!   path misses the vantage point.
//! - [`one_way_blocks`] — the Glatz & Dimitropoulos approach the paper's
//!   Section 2 discusses: classify each *flow* as one-way (no reverse
//!   flow observed) or two-way, then call a block dark when all its
//!   inbound traffic is one-way. Needs flow-level input (not per-/24
//!   aggregates) and was designed for unsampled border NetFlow; under
//!   IXP-style sampling the reverse flow is often simply unsampled, so
//!   its false positives grow with the sampling rate.

use crate::engine::PipelineEngine;
use crate::pipeline::PipelineConfig;
use mt_flow::{FlowRecord, TrafficView};
use mt_types::{Asn, Block24, Block24Set, PrefixTrie, RibIndex, SpecialRegistry};
use std::collections::HashSet;

/// Runs the origin-only baseline: routed, non-special blocks that
/// received any traffic and originated none.
pub fn origin_only<V: TrafficView>(stats: &V, rib: &PrefixTrie<Asn>) -> Block24Set {
    let special = SpecialRegistry::new();
    let rib_index = RibIndex::build(rib);
    let mut dark = Block24Set::new();
    for (block, d) in stats.iter_dst() {
        if d.total_packets() == 0 {
            continue;
        }
        if stats.src(block).map(|s| s.packets).unwrap_or(0) > 0 {
            continue;
        }
        if special.is_special_block(block) || !rib_index.contains_addr(block.base()) {
            continue;
        }
        dark.insert(block);
    }
    dark
}

/// The Glatz-style one-way-traffic baseline, at flow granularity.
///
/// A flow is *two-way* when a flow with the swapped 5-tuple appears in
/// the same record set. A routed, non-special /24 is called dark when it
/// received at least one flow and every flow toward it is one-way.
pub fn one_way_blocks(records: &[FlowRecord], rib: &PrefixTrie<Asn>) -> Block24Set {
    // Directed endpoint keys; a conversation is two-way if both
    // directions appear.
    let forward: HashSet<(u32, u32, u16, u16, u8)> = records
        .iter()
        .map(|r| (r.src.0, r.dst.0, r.src_port, r.dst_port, r.protocol))
        .collect();
    let special = SpecialRegistry::new();
    let rib_index = RibIndex::build(rib);
    let mut received = Block24Set::new();
    let mut answered = Block24Set::new();
    for r in records {
        let block = Block24::containing(r.dst);
        received.insert(block);
        let reverse = (r.dst.0, r.src.0, r.dst_port, r.src_port, r.protocol);
        if forward.contains(&reverse) {
            // The destination talks back: the block is alive.
            answered.insert(block);
        }
        // A block originating traffic is equally alive.
        answered.insert(Block24::containing(r.src));
    }
    let mut dark = received.difference(&answered);
    // Routability and special-purpose checks as in the other methods.
    let doomed: Vec<Block24> = dark
        .iter()
        .filter(|b| special.is_special_block(*b) || !rib_index.contains_addr(b.base()))
        .collect();
    for b in doomed {
        dark.remove(b);
    }
    dark
}

/// Side-by-side result of the baseline and the full pipeline.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Blocks the baseline calls dark.
    pub baseline: Block24Set,
    /// Blocks the full pipeline calls dark.
    pub pipeline: Block24Set,
}

impl BaselineComparison {
    /// Runs both approaches on the same inputs (flat or sharded).
    pub fn run<V: TrafficView>(
        stats: &V,
        rib: &PrefixTrie<Asn>,
        sampling_rate: u32,
        days: u32,
        config: &PipelineConfig,
    ) -> Self {
        BaselineComparison {
            baseline: origin_only(stats, rib),
            pipeline: PipelineEngine::standard()
                .run(stats, rib, sampling_rate, days, config)
                .dark,
        }
    }

    /// Blocks only the baseline accepts (the pipeline's filters reject
    /// them — where the false positives hide).
    pub fn baseline_only(&self) -> Block24Set {
        self.baseline.difference(&self.pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_flow::{FlowRecord, TrafficStats};
    use mt_types::{Prefix, SimTime};

    fn flow(src: &str, dst: &str, packets: u64, size: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 4000,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 2,
            packets,
            octets: packets * size,
        }
    }

    fn rib() -> PrefixTrie<Asn> {
        [("20.0.0.0/8", 65_000u32), ("9.0.0.0/8", 65_001)]
            .into_iter()
            .map(|(p, a)| (p.parse::<Prefix>().unwrap(), Asn(a)))
            .collect()
    }

    #[test]
    fn baseline_accepts_big_packet_blocks() {
        // An active block whose outbound path is invisible: inbound
        // 1400-byte data, no observed origination.
        let records = [flow("9.9.9.9", "20.1.1.1", 100, 1_400)];
        let stats = TrafficStats::from_records(&records);
        let cmp = BaselineComparison::run(&stats, &rib(), 1, 1, &PipelineConfig::default());
        assert_eq!(cmp.baseline.len(), 1, "baseline is fooled");
        assert_eq!(cmp.pipeline.len(), 0, "size filter rejects it");
        assert_eq!(cmp.baseline_only().len(), 1);
    }

    #[test]
    fn both_accept_genuinely_dark_blocks() {
        let records = [flow("9.9.9.9", "20.1.1.1", 100, 40)];
        let stats = TrafficStats::from_records(&records);
        let cmp = BaselineComparison::run(&stats, &rib(), 1, 1, &PipelineConfig::default());
        assert_eq!(cmp.baseline.len(), 1);
        assert_eq!(cmp.pipeline.len(), 1);
        assert!(cmp.baseline_only().is_empty());
    }

    #[test]
    fn one_way_flags_unanswered_blocks_only() {
        let records = [
            // Scan to 20.1.1.1: never answered → one-way → dark.
            flow("9.9.9.9", "20.1.1.1", 10, 40),
            // Conversation with 20.1.2.1: both directions → alive.
            flow("9.9.9.9", "20.1.2.1", 5, 40),
            flow("20.1.2.1", "9.9.9.9", 5, 1400),
            // Unrouted destination: excluded despite being one-way.
            flow("9.9.9.9", "21.1.1.1", 3, 40),
        ];
        let dark = one_way_blocks(&records, &rib());
        assert_eq!(dark.len(), 1);
        assert!(dark.contains(mt_types::Block24::containing("20.1.1.1".parse().unwrap())));
    }

    #[test]
    fn one_way_reverse_match_requires_swapped_ports() {
        // Same hosts, but the "reply" uses unrelated ports: still one-way.
        let a = flow("9.9.9.9", "20.1.1.1", 3, 40);
        let mut b = flow("20.1.1.1", "9.9.9.9", 3, 40);
        b.src_port = 1;
        b.dst_port = 2;
        let dark = one_way_blocks(&[a, b], &rib());
        // 20.1.1.0/24 originates (flow b) so it is alive regardless;
        // 9.9.9.0/24 receives only the unmatched b and originates a.
        assert!(dark.is_empty());
    }

    #[test]
    fn one_way_is_fooled_where_the_pipeline_is_not() {
        // An active block whose inbound data is visible but whose
        // outbound path misses the vantage point: one-way calls it dark,
        // the size filter does not.
        let records = [flow("8.8.8.8", "20.1.1.1", 500, 1400)];
        let dark = one_way_blocks(&records, &rib());
        assert_eq!(dark.len(), 1, "one-way is fooled");
        let stats = TrafficStats::from_records(&records);
        let full = PipelineEngine::standard().run(&stats, &rib(), 1, 1, &PipelineConfig::default());
        assert!(full.dark.is_empty(), "the fingerprint rejects it");
    }

    #[test]
    fn baseline_still_filters_origination_and_routing() {
        let records = [
            flow("9.9.9.9", "20.1.1.1", 10, 40),
            flow("20.1.1.5", "9.9.9.9", 1, 40),  // originates
            flow("9.9.9.9", "21.1.1.1", 10, 40), // unrouted
            flow("9.9.9.9", "10.0.0.1", 10, 40), // private
        ];
        let stats = TrafficStats::from_records(&records);
        let base = origin_only(&stats, &rib());
        // Only the scanner's own 9.9.9.0/24 received-without-sending?
        // No: 9.9.9.9 originates too. Nothing survives except... the
        // originating 20.1.1.0/24 is excluded, the rest are unroutable
        // or special.
        assert!(base.is_empty());
    }
}
