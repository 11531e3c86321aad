//! Multi-day and multi-vantage-point combination (Sections 6.1, 7.1).
//!
//! The paper combines observations two ways: merging several vantage
//! points for one day (Table 6's "All" row) and extending the window
//! over consecutive days (Table 4, Figure 9). Both reduce to merging
//! [`TrafficStats`] — counters add, host sets union — plus a RIB that
//! covers the window.

use mt_flow::TrafficStats;
use mt_netmodel::Internet;
use mt_types::{Asn, Day, PrefixTrie};

/// Merges any number of stats into one (vantage-point union and/or
/// day concatenation).
///
/// An **empty** iterator yields `TrafficStats::default()` — zero
/// counters with the default per-host size threshold
/// ([`mt_flow::stats::DEFAULT_SIZE_THRESHOLD`]). Callers that need a
/// non-default threshold on the empty window must construct it
/// themselves via [`TrafficStats::with_size_threshold`]; the threshold
/// cannot be inferred from zero parts.
///
/// # Panics
///
/// Panics if the inputs disagree on the per-host size threshold — the
/// "big packet" host sets of the parts would not be comparable.
pub fn merge_stats<I>(parts: I) -> TrafficStats
where
    I: IntoIterator<Item = TrafficStats>,
{
    let mut iter = parts.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for s in iter {
        acc.merge(&s);
    }
    acc
}

/// The union RIB of a multi-day window: a prefix is routed if any day's
/// snapshot carries it (conservative in the right direction — step 5
/// must only reject space that was *never* routed during the window).
pub fn rib_union(net: &Internet, first: Day, days: u32) -> PrefixTrie<Asn> {
    assert!(days > 0);
    let mut union = net.rib(first);
    for day in first.range(days).skip(1) {
        for (prefix, &asn) in net.rib(day).iter() {
            union.insert(prefix, asn);
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_flow::FlowRecord;
    use mt_netmodel::InternetConfig;
    use mt_types::{Ipv4, SimTime};

    fn flow(dst: u32, packets: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src: Ipv4::new(9, 9, 9, 9),
            dst: Ipv4(dst),
            src_port: 1,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 2,
            packets,
            octets: packets * 40,
        }
    }

    #[test]
    fn merge_adds_counters() {
        let a = TrafficStats::from_records(&[flow(0x1400_0001, 3)]);
        let b = TrafficStats::from_records(&[flow(0x1400_0001, 4), flow(0x1500_0001, 1)]);
        let merged = merge_stats([a, b]);
        assert_eq!(merged.total_packets, 8);
        assert_eq!(merged.dst_block_count(), 2);
    }

    #[test]
    fn merge_of_nothing_is_empty_with_default_threshold() {
        // The empty window is explicitly defined: zero counters, default
        // size threshold (documented on `merge_stats`).
        let merged = merge_stats(std::iter::empty::<TrafficStats>());
        assert_eq!(merged.total_flows, 0);
        assert_eq!(merged.total_packets, 0);
        assert_eq!(merged.dst_block_count(), 0);
        assert_eq!(
            merged.size_threshold(),
            mt_flow::stats::DEFAULT_SIZE_THRESHOLD
        );
    }

    #[test]
    #[should_panic(expected = "different host-size thresholds")]
    fn merge_rejects_mismatched_thresholds() {
        // Parts built against different "big packet" thresholds have
        // incomparable host sets; merging them must panic, not silently
        // pick one threshold.
        let a = TrafficStats::with_size_threshold(44);
        let b = TrafficStats::with_size_threshold(100);
        let _ = merge_stats([a, b]);
    }

    #[test]
    fn rib_union_is_superset_of_each_day() {
        let net = Internet::generate(InternetConfig::small(), 9);
        let union = rib_union(&net, Day(0), 7);
        for day in Day(0).range(7) {
            let daily = net.rib(day);
            assert!(union.len() >= daily.len());
            for (prefix, _) in daily.iter() {
                assert!(union.get(prefix).is_some(), "{prefix} missing from union");
            }
        }
    }
}
