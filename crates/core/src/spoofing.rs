//! The spoofing tolerance of Section 7.2.
//!
//! Spoofers draw forged sources across routed *and unrouted* space, so
//! traffic "from" known-unrouted /8s is a clean baseline for how many
//! spoofed packets an arbitrary /24 should expect to be blamed for. The
//! paper computes the 99.99th percentile ([`SPOOF_PERCENTILE`]) of
//! per-/24 source packet counts inside two unrouted /8s and allows that
//! many packets before a block is disqualified as originating.
//!
//! A run chooses its tolerance with a [`SpoofRule`] in
//! [`PipelineConfig::spoof_tolerance`](crate::PipelineConfig::spoof_tolerance);
//! the engine resolves the rule once per run, on the stats it judges,
//! and reports the packets it forgave in
//! [`PipelineResult::spoof_tolerance`](crate::PipelineResult::spoof_tolerance).

use mt_flow::TrafficView;
use mt_types::Block24;
use serde::{Deserialize, Serialize};

/// The paper's percentile of per-/24 source packets in unrouted space:
/// the 99.99th.
pub const SPOOF_PERCENTILE: f64 = 0.9999;

/// /24s inside one /8.
const BLOCKS_PER_OCTET: u64 = 1 << 16;

/// How a pipeline run decides its spoofing tolerance: the sampled
/// source packets a /24 may emit before it counts as originating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpoofRule {
    /// A fixed packet count; 0 is strict.
    Fixed(u64),
    /// Section 7.2: the [`SPOOF_PERCENTILE`] of per-/24 source packets
    /// inside these unrouted first octets, estimated on the window
    /// being judged. The octets are a fact about the deployment, like
    /// its RIB.
    ///
    /// The tolerance is at least 1 packet. On a small or short window
    /// almost no unrouted /24 is blamed for anything and the estimate
    /// is 0; a run that asked for tolerance must not silently become
    /// strict.
    Unrouted(Vec<u8>),
}

impl Default for SpoofRule {
    /// Strict: `Fixed(0)`.
    fn default() -> Self {
        SpoofRule::Fixed(0)
    }
}

impl SpoofRule {
    /// The packets a run over `stats` forgives under this rule.
    pub(crate) fn resolve<V: TrafficView>(&self, stats: &V) -> u64 {
        match self {
            SpoofRule::Fixed(packets) => *packets,
            SpoofRule::Unrouted(octets) => {
                SpoofTolerance::estimate(stats, octets, SPOOF_PERCENTILE)
                    .packets
                    .max(1)
            }
        }
    }
}

/// An estimated spoofing tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpoofTolerance {
    /// Sampled packets a /24 may "originate" before being disqualified.
    pub packets: u64,
    /// The percentile used (e.g. [`SPOOF_PERCENTILE`]).
    pub percentile: f64,
    /// Number of unrouted /24s the estimate is based on.
    pub baseline_blocks: u64,
    /// How many of those were blamed for at least one packet.
    pub polluted_blocks: u64,
}

impl SpoofTolerance {
    /// Estimates the tolerance from the window's stats and the scenario's
    /// unrouted first octets at `percentile` (the pipeline always asks
    /// for [`SPOOF_PERCENTILE`]).
    ///
    /// Every /24 of each unrouted /8 participates, including the (vast
    /// majority of) blocks blamed for zero packets — leaving those out
    /// would wildly overestimate the tolerance. Only the blamed blocks'
    /// counts are kept: the percentile is ranked against the implied
    /// zeros, which sort first. A repeated octet is counted once per
    /// listing.
    pub fn estimate<V: TrafficView>(stats: &V, unrouted_octets: &[u8], percentile: f64) -> Self {
        assert!((0.0..=1.0).contains(&percentile));
        let mut polluted: Vec<u64> = Vec::new();
        for &octet in unrouted_octets {
            let first = u32::from(octet) << 16;
            polluted.extend(
                (first..first + BLOCKS_PER_OCTET as u32)
                    .filter_map(|block| stats.src(Block24(block)))
                    .map(|s| s.packets)
                    .filter(|&c| c > 0),
            );
        }
        let baseline_blocks = BLOCKS_PER_OCTET * unrouted_octets.len() as u64;
        let zeros = baseline_blocks - polluted.len() as u64;
        let packets = match baseline_blocks.checked_sub(1) {
            None => 0,
            Some(last) => {
                let rank = (((baseline_blocks as f64 - 1.0) * percentile).round() as u64).min(last);
                match rank.checked_sub(zeros) {
                    None => 0,
                    Some(i) => *polluted.select_nth_unstable(i as usize).1,
                }
            }
        };
        SpoofTolerance {
            packets,
            percentile,
            baseline_blocks,
            polluted_blocks: polluted.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_flow::{FlowRecord, TrafficStats};
    use mt_types::{Ipv4, SimTime};
    use proptest::prelude::*;

    fn spoofed_from(src: Ipv4, packets: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src,
            dst: Ipv4::new(8, 8, 8, 8),
            src_port: 1024,
            dst_port: 80,
            protocol: 6,
            tcp_flags: 2,
            packets,
            octets: packets * 40,
        }
    }

    /// The dense reference: one count per probed /24, zeros included,
    /// sorted, and indexed at the percentile's rank.
    fn dense_oracle(
        stats: &TrafficStats,
        unrouted_octets: &[u8],
        percentile: f64,
    ) -> SpoofTolerance {
        let mut counts: Vec<u64> = Vec::new();
        let mut polluted = 0u64;
        for &octet in unrouted_octets {
            let first = u32::from(octet) << 16;
            for block in first..first + (1 << 16) {
                let c = stats.src(Block24(block)).map(|s| s.packets).unwrap_or(0);
                if c > 0 {
                    polluted += 1;
                }
                counts.push(c);
            }
        }
        let baseline_blocks = counts.len() as u64;
        let packets = if counts.is_empty() {
            0
        } else {
            counts.sort_unstable();
            let rank = ((counts.len() as f64 - 1.0) * percentile).round() as usize;
            counts[rank.min(counts.len() - 1)]
        };
        SpoofTolerance {
            packets,
            percentile,
            baseline_blocks,
            polluted_blocks: polluted,
        }
    }

    #[test]
    fn no_spoofing_means_zero_tolerance() {
        let stats = TrafficStats::new();
        let t = SpoofTolerance::estimate(&stats, &[37, 53], SPOOF_PERCENTILE);
        assert_eq!(t.packets, 0);
        assert_eq!(t.baseline_blocks, 2 * 65_536);
        assert_eq!(t.polluted_blocks, 0);
    }

    #[test]
    fn light_pollution_keeps_tolerance_at_zero() {
        // 10 polluted blocks out of 131 072: the 99.99th percentile
        // (rank ≈ 131 059) still sits in the zero mass.
        let mut stats = TrafficStats::new();
        for i in 0..10u8 {
            stats.ingest(&spoofed_from(Ipv4::new(37, i, 0, 1), 1));
        }
        let t = SpoofTolerance::estimate(&stats, &[37, 53], SPOOF_PERCENTILE);
        assert_eq!(t.packets, 0);
        assert_eq!(t.polluted_blocks, 10);
    }

    #[test]
    fn heavy_pollution_raises_tolerance() {
        // Pollute ~0.1% of the baseline blocks with 2 packets each: the
        // 99.99th percentile lands inside the polluted mass.
        let mut stats = TrafficStats::new();
        for i in 0..140u32 {
            let src = Ipv4((37 << 24) | (i << 8) | 1);
            stats.ingest(&spoofed_from(src, 2));
        }
        let t = SpoofTolerance::estimate(&stats, &[37], SPOOF_PERCENTILE);
        assert_eq!(t.baseline_blocks, 65_536);
        assert_eq!(t.polluted_blocks, 140);
        assert_eq!(t.packets, 2);
    }

    #[test]
    fn percentile_one_returns_the_max() {
        let mut stats = TrafficStats::new();
        stats.ingest(&spoofed_from(Ipv4::new(53, 1, 2, 3), 7));
        let t = SpoofTolerance::estimate(&stats, &[53], 1.0);
        assert_eq!(t.packets, 7);
    }

    #[test]
    fn routed_sources_do_not_count() {
        let mut stats = TrafficStats::new();
        // Traffic from routed space must not affect the baseline.
        stats.ingest(&spoofed_from(Ipv4::new(20, 1, 2, 3), 1_000));
        let t = SpoofTolerance::estimate(&stats, &[37, 53], SPOOF_PERCENTILE);
        assert_eq!(t.packets, 0);
        assert_eq!(t.polluted_blocks, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_sparse_estimate_equals_the_dense_oracle(
            // Sources in two unrouted /8s and one routed one; the
            // octet list may be empty or repeat an octet. With `quiet`
            // set nothing is ingested: an all-zero baseline.
            sources in proptest::collection::vec(
                (prop_oneof![Just(37u8), Just(53), Just(20)], 0u32..1 << 16, 1u64..20),
                0..400,
            ),
            octets in proptest::collection::vec(prop_oneof![Just(37u8), Just(53), Just(20)], 0..4),
            percentile in prop_oneof![Just(0.0), Just(SPOOF_PERCENTILE), Just(1.0), 0.0..=1.0f64],
            quiet in any::<bool>(),
        ) {
            let mut stats = TrafficStats::new();
            if !quiet {
                for (octet, block, packets) in sources {
                    let src = Ipv4(u32::from(octet) << 24 | block << 8 | 1);
                    stats.ingest(&spoofed_from(src, packets));
                }
            }
            prop_assert_eq!(
                SpoofTolerance::estimate(&stats, &octets, percentile),
                dense_oracle(&stats, &octets, percentile)
            );
        }
    }
}
